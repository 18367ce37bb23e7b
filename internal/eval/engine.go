package eval

import (
	"context"
	"runtime"

	"kdb/internal/governor"
	"kdb/internal/obs"
	"kdb/internal/obs/profile"
	"kdb/internal/prov"
)

// engineConfig carries the tunables shared by the engine constructors.
type engineConfig struct {
	workers int
	limits  governor.Limits
	rec     *prov.Recorder
	prof    *profile.Profile
}

// EngineOption tunes an engine at construction.
type EngineOption func(*engineConfig)

// WithWorkers sets the SCC worker-pool size of bottom-up evaluation:
// independent strongly connected components of the rule dependency
// graph are evaluated concurrently on up to n goroutines. n <= 0
// selects GOMAXPROCS; the default is 1, which keeps the evaluation
// strictly sequential. Top-down evaluation ignores this option.
func WithWorkers(n int) EngineOption {
	return func(c *engineConfig) { c.workers = n }
}

// WithLimits sets the per-query resource limits the engine's governor
// enforces on every evaluation. The zero value of each field means
// unlimited.
func WithLimits(l governor.Limits) EngineOption {
	return func(c *engineConfig) { c.limits = l }
}

// WithProvenance makes the engine record one why-provenance witness
// (firing rule plus ground parent facts) for every newly derived fact
// into rec, bounded by the governor's MaxProvenanceEntries limit. Every
// engine honors it. A nil recorder disables recording; the derive path
// then pays a single nil check (see TestProvenanceDisabledAllocs).
func WithProvenance(rec *prov.Recorder) EngineOption {
	return func(c *engineConfig) { c.rec = rec }
}

func buildConfig(opts []EngineOption) engineConfig {
	cfg := engineConfig{workers: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	return cfg
}

// strategy is the evaluation algorithm an engine runs.
type strategy uint8

const (
	// auto picks top-down or semi-naive per query (see goalDirected).
	auto strategy = iota
	naive
	seminaive
	topdown
)

// engine is the one Engine implementation. The constructors differ only
// in the strategy they fix; every query is planned once, and the plan
// then runs bottom-up or top-down.
type engine struct {
	engineConfig
	in       Input
	strategy strategy
}

func newEngine(in Input, s strategy, opts []EngineOption) *engine {
	return &engine{engineConfig: buildConfig(opts), in: in, strategy: s}
}

// New returns the production engine. Each query is planned once, and
// the plan picks the strategy: tabled top-down resolution when the
// query binds an argument of a rule-defined predicate, so only what the
// goal reaches is evaluated, and semi-naive bottom-up for everything
// else (free goals, stored-relation reads, sys_* reads). EvalStats.Engine
// names the strategy each query ran on.
func New(in Input, opts ...EngineOption) Engine { return newEngine(in, auto, opts) }

// NewNaive returns the naive bottom-up engine: it recomputes every rule
// against the full extensions until no new fact appears. It is the test
// oracle the production strategies are checked against.
func NewNaive(in Input, opts ...EngineOption) Engine { return newEngine(in, naive, opts) }

// NewSemiNaive returns the semi-naive bottom-up engine: within each
// recursive SCC, rules are differentiated on their recursive body atoms
// so each iteration only joins against the facts new in the previous
// iteration. With WithWorkers(n), independent SCCs are evaluated
// concurrently.
func NewSemiNaive(in Input, opts ...EngineOption) Engine {
	return newEngine(in, seminaive, opts)
}

// NewTopDown returns the tabled top-down engine. It ignores WithWorkers
// (tabling shares one answer-table space across the whole resolution)
// but honors WithLimits, WithProvenance, and WithProfile.
func NewTopDown(in Input, opts ...EngineOption) Engine { return newEngine(in, topdown, opts) }

// Name identifies the engine's strategy; bottom-up strategies carry a
// "-par" suffix when they run on more than one worker.
func (e *engine) Name() string {
	switch e.strategy {
	case auto:
		return "auto"
	case topdown:
		return "topdown"
	}
	return e.bottomUpName()
}

// bottomUpName names the bottom-up run: the production engine's
// bottom-up strategy is semi-naive.
func (e *engine) bottomUpName() string {
	name := "seminaive"
	if e.strategy == naive {
		name = "naive"
	}
	if e.workers > 1 {
		name += "-par"
	}
	return name
}

// RetrieveContext plans the query and evaluates it under the context
// and the engine's limits; the answer carries the evaluation's
// statistics (Result.Stats). Cancellation, deadline expiry, and limit
// breaches stop the evaluation promptly and return a *StopError; panics
// anywhere in the evaluation (worker goroutines included) are contained.
func (e *engine) RetrieveContext(ctx context.Context, q Query) (res *Result, err error) {
	defer governor.Recover(&err)
	gov, cancel := governor.New(ctx, e.limits)
	defer cancel()
	asp := obs.SpanFromContext(ctx).Child("analyze")
	p, err := buildPlan(e.in, q)
	asp.End()
	if err != nil {
		return nil, err
	}
	if e.strategy == topdown || e.strategy == auto && p.goalDirected() {
		return e.topDown(ctx, gov, p)
	}
	return e.bottomUp(ctx, gov, p)
}

// goalDirected reports whether some body atom of the query rule names a
// rule-defined predicate and has a constant argument. Such a goal reaches
// only the slice of the database its constants select, which top-down
// resolution evaluates and bottom-up evaluation would derive in full.
func (p *plan) goalDirected() bool {
	for _, a := range p.rule.Body {
		if len(p.graph.RulesFor(a.Pred)) == 0 {
			continue
		}
		for _, t := range a.Args {
			if t.IsConst() {
				return true
			}
		}
	}
	return false
}
