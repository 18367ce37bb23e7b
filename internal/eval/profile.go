package eval

import (
	"time"

	"kdb/internal/obs/profile"
	"kdb/internal/storage"
	"kdb/internal/term"
)

// WithProfile makes the engine record one per-rule cost row into p for
// every rule it evaluates: wall time, rounds, tuples produced, and the
// storage probe counters split index-hit/full-scan. Every engine honors
// it. A nil collector disables profiling; the derive path then
// pays a single nil check per rule round and per derived fact (see
// TestProfileDisabledAllocs), mirroring the provenance hook's
// zero-overhead contract.
func WithProfile(p *profile.Profile) EngineOption {
	return func(c *engineConfig) { c.prof = p }
}

// ruleSample is one in-progress rule-round measurement.
type ruleSample struct {
	rule    term.Rule
	active  bool
	start   time.Time
	child   time.Duration // time spent in nested rules (top-down subgoals)
	tuples  int64
	lookups int64
	ctrs    *storage.Counters
}

// ruleProfiler adapts one evaluation thread (a bottom-up component, or
// a whole top-down run) to the profile collector: begin/end bracket one
// rule round, fresh counts a derived fact, and storageCounters exposes
// a per-rule probe sink chained onto the query-wide counters so engine
// totals stay intact. It is single-goroutine by construction; the
// shared *profile.Profile does its own locking. All methods are
// nil-receiver-safe, so an unprofiled evaluation pays only the nil
// checks.
type ruleProfiler struct {
	p      *profile.Profile
	parent *storage.Counters

	cur   ruleSample
	stack []ruleSample // saved enclosing samples (top-down nesting)
}

func newRuleProfiler(p *profile.Profile, parent *storage.Counters) *ruleProfiler {
	return &ruleProfiler{p: p, parent: parent}
}

// begin opens a sample for one round of r, saving any enclosing sample
// (a top-down rule solving a subgoal's rules).
func (rp *ruleProfiler) begin(r term.Rule) {
	if rp == nil {
		return
	}
	if rp.cur.active {
		rp.stack = append(rp.stack, rp.cur)
	}
	c := &storage.Counters{}
	c.Chain(rp.parent)
	rp.cur = ruleSample{rule: r, active: true, start: time.Now(), ctrs: c}
}

// end closes the current sample and merges it into the collector. Wall
// time is self time: nested rule rounds are subtracted, so a profile's
// rows partition the evaluation instead of double-counting callers.
func (rp *ruleProfiler) end() {
	if rp == nil || !rp.cur.active {
		return
	}
	total := time.Since(rp.cur.start)
	self := total - rp.cur.child
	if self < 0 {
		self = 0
	}
	r := rp.cur.rule
	rp.p.Add(profile.Sample{
		Rule:        r.String(),
		Pred:        r.Head.Pred,
		Synthetic:   r.Head.Pred == queryPredName,
		Wall:        self,
		Tuples:      rp.cur.tuples,
		Lookups:     rp.cur.lookups,
		Probes:      rp.cur.ctrs.Probes.Load(),
		FullScans:   rp.cur.ctrs.FullScans.Load(),
		Candidates:  rp.cur.ctrs.Candidates.Load(),
		IndexBuilds: rp.cur.ctrs.IndexBuilds.Load(),
	})
	if n := len(rp.stack); n > 0 {
		enclosing := rp.stack[n-1]
		rp.stack = rp.stack[:n-1]
		enclosing.child += total
		rp.cur = enclosing
	} else {
		rp.cur = ruleSample{}
	}
}

// fresh counts one newly derived fact against the current rule.
//
//kdb:hotpath
func (rp *ruleProfiler) fresh() {
	if rp == nil {
		return
	}
	rp.cur.tuples++
}

// countLookup counts one body-atom resolution against the current rule.
//
//kdb:hotpath
func (rp *ruleProfiler) countLookup() {
	if rp == nil {
		return
	}
	rp.cur.lookups++
}

// storageCounters returns the current rule's probe sink, or nil when no
// sample is open (callers then fall back to the query-wide sink).
//
//kdb:hotpath
func (rp *ruleProfiler) storageCounters() *storage.Counters {
	if rp == nil || !rp.cur.active {
		return nil
	}
	return rp.cur.ctrs
}
