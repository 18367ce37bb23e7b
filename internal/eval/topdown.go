package eval

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"kdb/internal/depgraph"
	"kdb/internal/governor"
	"kdb/internal/obs"
	"kdb/internal/prov"
	"kdb/internal/storage"
	"kdb/internal/term"
)

// Top-down evaluation is goal-directed: SLD resolution over the rules
// with tabling. Each distinct call pattern (predicate + bound-argument
// shape) gets a table of ground answers; recursive calls consume the
// answers derived so far, and an outer driver re-runs the computation
// until no table grows (naive-iteration tabling). This terminates on all
// Datalog programs and only ever touches predicates relevant to the goal.

// table holds the answers derived so far for one call pattern.
type table struct {
	answers *storage.Relation
	// inPass marks that this table's rules are being (or have been)
	// evaluated in the current pass, to avoid re-entering.
	pass int
}

type topDownRun struct {
	in    Input
	graph *depgraph.Graph
	rn    term.Renamer
	gov   *governor.Governor
	rec   *prov.Recorder
	// virt holds the plan's per-query virtual-relation snapshots (nil
	// when the program references none).
	virt map[string]*storage.Relation

	tables   map[string]*table
	pass     int
	grew     bool
	counters *storage.Counters
	lookups  int64
	prof     *ruleProfiler
}

// topDown evaluates the plan goal-directed under the governor: the
// naive-iteration driver checks cancellation and the pass budget between
// passes, every lookup performs an amortized check, and table allocation
// and answer insertion are bounded by MaxTableEntries and MaxFacts.
func (e *engine) topDown(ctx context.Context, gov *governor.Governor, p *plan) (*Result, error) {
	sp := obs.SpanFromContext(ctx)
	// The counters are private to this query and threaded through every
	// stored-relation probe, so concurrent queries stay independent.
	run := &topDownRun{
		in:       e.in,
		graph:    p.graph,
		gov:      gov,
		rec:      e.rec,
		virt:     p.virtual,
		tables:   make(map[string]*table),
		counters: &storage.Counters{},
	}
	if e.prof != nil {
		run.prof = newRuleProfiler(e.prof, run.counters)
	}
	provStart := e.rec.Len()
	goal := p.rule.Head
	evalSp := sp.Child("eval")
	evalSp.SetStr("engine", "topdown")
	evalSp.SetInt("workers", 1)
	start := time.Now()
	act := obs.ActivityFromContext(ctx)
	// Naive-iteration driver: re-run until no table grows.
	var runErr error
	for {
		if runErr = gov.Err(); runErr != nil {
			break
		}
		if runErr = gov.CheckIterations(run.pass + 1); runErr != nil {
			break
		}
		run.pass++
		run.grew = false
		if runErr = run.solveTable(goal); runErr != nil {
			break
		}
		if act != nil {
			facts := int64(0)
			for _, t := range run.tables {
				facts += int64(t.answers.Len())
			}
			act.SetProgress(facts, run.lookups)
		}
		if !run.grew {
			break
		}
	}
	stats := &EvalStats{
		Engine:  "topdown",
		Workers: 1,
		Passes:  run.pass,
		Tables:  len(run.tables),
		Lookups: run.lookups,
	}
	for _, t := range run.tables {
		stats.Facts += t.answers.Len()
	}
	evalSp.SetInt("passes", int64(run.pass))
	evalSp.SetInt("tables", int64(len(run.tables)))
	if err := e.finish(stats, start, run.counters, provStart, evalSp, sp, runErr); err != nil {
		return nil, err
	}
	res := &Result{Vars: p.vars, Stats: stats}
	if t, ok := run.tables[callKey(goal)]; ok {
		t.answers.Scan(func(tp storage.Tuple) bool {
			res.Tuples = append(res.Tuples, tp.Clone())
			return true
		})
	}
	return res, nil
}

// callKey canonicalizes a call: predicate plus the constants at bound
// positions and the equality pattern of unbound positions. Two calls
// that differ only in variable names share a table. Variable ids are
// encoded in delimited decimal — a single '0'+id byte would collide with
// the marker and separator bytes once ids grow, and wraps at 256.
func callKey(goal term.Atom) string {
	names := make(map[term.Term]int)
	b := []byte(goal.Pred)
	for _, a := range goal.Args {
		b = append(b, 0)
		if a.IsConst() {
			b = append(b, 'c')
			b = append(b, a.String()...)
			b = strconv.AppendInt(b, int64(a.Kind()), 10)
			continue
		}
		id, ok := names[a]
		if !ok {
			id = len(names)
			names[a] = id
		}
		b = append(b, 'v')
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return string(b)
}

// solveTable ensures the table for the goal's call pattern has been
// evaluated in this pass, deriving new answers from the goal's rules.
func (r *topDownRun) solveTable(goal term.Atom) error {
	key := callKey(goal)
	t, ok := r.tables[key]
	if !ok {
		if err := r.gov.CheckTableEntries(len(r.tables) + 1); err != nil {
			return err
		}
		rel, err := storage.NewRelation(len(goal.Args))
		if err != nil {
			return err
		}
		t = &table{answers: rel}
		t.answers.SetCounters(r.counters)
		r.tables[key] = t
	}
	if t.pass == r.pass {
		return nil // already evaluated (or in progress) this pass
	}
	t.pass = r.pass
	for _, rule := range r.graph.RulesFor(goal.Pred) {
		if err := r.solveRule(t, goal, rule); err != nil {
			return err
		}
	}
	return nil
}

// solveRule evaluates one rule against the goal's table. The round is
// bracketed by the profiler; nested subgoal work (lookup re-entering
// solveTable) is attributed to the rules it evaluates, not this one.
func (r *topDownRun) solveRule(t *table, goal term.Atom, rule term.Rule) error {
	fresh := r.rn.RenameRule(rule)
	mgu, ok := term.Unify(goal, fresh.Head, nil)
	if !ok {
		return nil
	}
	r.prof.begin(rule)
	defer r.prof.end()
	body := mgu.ApplyFormula(fresh.Body)
	var derr error
	_, err := solveBody(body, nil, r.lookup, func(s term.Subst) bool {
		// Large joins emit many solutions between lookups; tick per
		// solution so cancellation latency stays bounded.
		if derr = r.gov.Tick(); derr != nil {
			return false
		}
		head := s.Apply(mgu.Apply(fresh.Head))
		if !head.IsGround() {
			derr = fmt.Errorf("eval: derived non-ground fact %v from %v", head, rule)
			return false
		}
		if DeriveHook != nil {
			DeriveHook(head)
		}
		added, err := t.answers.Insert(storage.Tuple(head.Args))
		if err != nil {
			derr = err
			return false
		}
		if added {
			r.grew = true
			r.prof.fresh()
			if err := r.gov.CountFacts(1); err != nil {
				derr = err
				return false
			}
			if r.rec != nil {
				n := r.rec.Record(head, rule, body, s)
				if err := r.gov.CheckProvenanceEntries(n); err != nil {
					derr = err
					return false
				}
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	return derr
}

// lookup resolves one body atom: EDB predicates via the store, IDB
// predicates via their (possibly still-growing) tables.
func (r *topDownRun) lookup(a term.Atom, base term.Subst, fn func(term.Subst) bool) error {
	r.lookups++
	r.prof.countLookup()
	if err := r.gov.Tick(); err != nil {
		return err
	}
	// With profiling on, probes are charged to the current rule's sink,
	// which chains onto the run-wide counters.
	c := r.counters
	if pc := r.prof.storageCounters(); pc != nil {
		c = pc
	}
	if r.virt != nil {
		if vr := r.virt[a.Pred]; vr != nil {
			return matchRelation(vr, a, base, c, fn)
		}
	}
	if len(r.graph.RulesFor(a.Pred)) == 0 {
		return r.in.Store.MatchCounted(a, base, c, fn)
	}
	goal := base.Apply(a)
	if err := r.solveTable(goal); err != nil {
		return err
	}
	t := r.tables[callKey(goal)]
	stopped := false
	var terr error
	t.answers.Scan(func(tp storage.Tuple) bool {
		// Answer tables can hold many tuples; tick per tuple (amortized)
		// so a scan inside a big join stays cancelable.
		if terr = r.gov.Tick(); terr != nil {
			return false
		}
		ext, ok := term.Match(goal, term.Atom{Pred: a.Pred, Args: tp}, base)
		if !ok {
			return true
		}
		if !fn(ext) {
			stopped = true
			return false
		}
		return true
	})
	if terr != nil {
		return terr
	}
	if stopped {
		return nil
	}
	// A predicate may also have stored facts (robustness; the kb layer
	// normally rewrites those into bodiless rules).
	if r.in.Store.Relation(a.Pred) != nil {
		return r.in.Store.MatchCounted(a, base, c, fn)
	}
	return nil
}
