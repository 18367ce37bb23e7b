package eval

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"kdb/internal/governor"
	"kdb/internal/obs"
	"kdb/internal/prov"
	"kdb/internal/storage"
	"kdb/internal/term"
)

// finish completes an evaluation's record — wall time, storage
// counters, provenance witnesses, stop reason — closes the profile and
// the eval span, emits the storage-probe summary span, and returns the
// *StopError of a governed stop (nil otherwise). Nil-safe spans
// (untraced queries pass nil).
func (e *engine) finish(stats *EvalStats, start time.Time, counters *storage.Counters, provStart int, evalSp, sp *obs.Span, runErr error) error {
	stats.Wall = time.Since(start)
	stats.Probes = counters.Probes.Load()
	stats.Candidates = counters.Candidates.Load()
	stats.IndexBuilds = counters.IndexBuilds.Load()
	stats.FullScans = counters.FullScans.Load()
	stats.ProvEntries = e.rec.Len() - provStart
	stats.StopReason = governor.StopReason(runErr)
	if e.prof != nil {
		e.prof.Finish(stats.Engine, stats.Wall)
	}
	evalSp.SetInt("facts", int64(stats.Facts))
	evalSp.SetInt("lookups", stats.Lookups)
	if stats.StopReason != "" && stats.StopReason != "ok" {
		evalSp.SetStr("stop", stats.StopReason)
	}
	evalSp.End()
	if sp != nil {
		ssp := sp.Child("storage")
		ssp.SetInt("probes", stats.Probes)
		ssp.SetInt("candidates", stats.Candidates)
		ssp.SetInt("index_builds", stats.IndexBuilds)
		ssp.End()
	}
	if runErr != nil {
		return &StopError{Stats: stats, Err: runErr}
	}
	return nil
}

// derived holds the materialized extensions of IDB predicates during a
// bottom-up evaluation. The map is guarded by a mutex so independent
// SCCs can insert and look up concurrently; each relation is internally
// synchronized by storage.Relation's own lock.
type derived struct {
	mu       sync.RWMutex
	rels     map[string]*storage.Relation
	counters *storage.Counters // attached to every relation created here
}

func newDerived(c *storage.Counters) *derived {
	return &derived{rels: make(map[string]*storage.Relation), counters: c}
}

// get returns the relation for pred, or nil if no fact for pred has been
// derived yet.
func (d *derived) get(pred string) *storage.Relation {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.rels[pred]
}

func (d *derived) relation(pred string, arity int) (*storage.Relation, error) {
	d.mu.RLock()
	r, ok := d.rels[pred]
	d.mu.RUnlock()
	if ok {
		return r, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if r, ok := d.rels[pred]; ok {
		return r, nil
	}
	r, err := storage.NewRelation(arity)
	if err != nil {
		return nil, err
	}
	if d.counters != nil {
		r.SetCounters(d.counters)
	}
	d.rels[pred] = r
	return r, nil
}

func (d *derived) insert(a term.Atom) (bool, error) {
	r, err := d.relation(a.Pred, len(a.Args))
	if err != nil {
		return false, err
	}
	return r.Insert(storage.Tuple(a.Args))
}

// empty reports whether no relation holds any tuple.
func (d *derived) empty() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, r := range d.rels {
		if r.Len() > 0 {
			return false
		}
	}
	return true
}

// match resolves an atom against a derived relation. A nil sink falls
// back to the relation-attached counters.
func (d *derived) match(a term.Atom, base term.Subst, c *storage.Counters, fn func(term.Subst) bool) error {
	r := d.get(a.Pred)
	if r == nil {
		return nil
	}
	return matchRelation(r, a, base, c, fn)
}

// matchRelation resolves an atom against one relation, extending base
// with every successful match. The probe is charged to c (nil: the
// relation-attached counters).
func matchRelation(r *storage.Relation, a term.Atom, base term.Subst, c *storage.Counters, fn func(term.Subst) bool) error {
	if r.Arity() != len(a.Args) {
		return fmt.Errorf("eval: %s used with arity %d, derived with %d", a.Pred, len(a.Args), r.Arity())
	}
	pattern := base.Apply(a)
	return r.SelectCounted(pattern.Args, c, func(t storage.Tuple) bool {
		ext, ok := term.Match(pattern, term.Atom{Pred: a.Pred, Args: t}, base)
		if !ok {
			return true
		}
		return fn(ext)
	})
}

// matchStoreExcept enumerates the stored tuples of a.Pred, skipping
// tuples already present in the except relation. It is how a predicate
// with both derived and stored tuples (the kb layer turns stored facts
// of rule-defined predicates into bodiless rules, but eval stays robust
// either way) avoids feeding the same substitution twice.
func matchStoreExcept(st *storage.Store, a term.Atom, base term.Subst, except *storage.Relation, c *storage.Counters, fn func(term.Subst) bool) error {
	r := st.Relation(a.Pred)
	if r == nil {
		return nil
	}
	if r.Arity() != len(a.Args) {
		return fmt.Errorf("eval: %s used with arity %d, stored with %d", a.Pred, len(a.Args), r.Arity())
	}
	suppress := except != nil && except.Arity() == r.Arity()
	pattern := base.Apply(a)
	return r.SelectCounted(pattern.Args, c, func(t storage.Tuple) bool {
		if suppress && except.Contains(t) {
			return true
		}
		ext, ok := term.Match(pattern, term.Atom{Pred: a.Pred, Args: t}, base)
		if !ok {
			return true
		}
		return fn(ext)
	})
}

// bottomUp evaluates the plan bottom-up, naive or semi-naive, under
// the governor. Components of the dependency graph's condensation are
// evaluated in dependency order — sequentially, or on a worker pool that
// runs independent components concurrently. Cancellation and limit
// breaches stop the fixpoint loops cooperatively.
func (e *engine) bottomUp(ctx context.Context, gov *governor.Governor, p *plan) (*Result, error) {
	sp := obs.SpanFromContext(ctx)
	// The observability counters are private to this query and threaded
	// through every storage probe (MatchCounted / SelectCounted), so
	// concurrent queries over the same store keep independent counts.
	counters := &storage.Counters{}
	d := newDerived(counters)
	relevant := p.relevantPreds()

	components := p.graph.SCCOrder()
	name := e.bottomUpName()
	stats := &EvalStats{
		Engine:     name,
		Workers:    e.workers,
		Components: make([]ComponentStats, len(components)),
	}
	evalSp := sp.Child("eval")
	evalSp.SetStr("engine", name)
	evalSp.SetInt("workers", int64(e.workers))
	evalSp.SetInt("components", int64(len(components)))
	start := time.Now()
	act := obs.ActivityFromContext(ctx)
	evalOne := func(i, worker int) error {
		comp := components[i]
		cs := &stats.Components[i]
		cs.Preds = comp
		needed := false
		hasRules := false
		for _, pred := range comp {
			if relevant[pred] {
				needed = true
			}
			if len(p.graph.RulesFor(pred)) > 0 {
				hasRules = true
			}
		}
		if !needed || !hasRules {
			cs.Skipped = true
			return nil
		}
		if err := gov.Err(); err != nil {
			return err
		}
		csp := evalSp.Child("scc")
		csp.SetWorker(worker)
		csp.SetStr("preds", strings.Join(comp, " "))
		t0 := time.Now()
		err := e.evalComponent(p, d, gov, comp, cs, act)
		cs.Wall = time.Since(t0)
		act.AddProgress(0, cs.Lookups)
		csp.SetInt("iterations", int64(cs.Iterations))
		csp.SetInt("facts", int64(cs.Facts))
		csp.SetInt("lookups", int64(cs.Lookups))
		csp.SetBool("recursive", cs.Recursive)
		csp.End()
		return err
	}
	provStart := e.rec.Len()
	var runErr error
	if e.workers <= 1 {
		for i := range components {
			if runErr = evalOne(i, 0); runErr != nil {
				break
			}
		}
	} else {
		runErr = runDAG(e.workers, p.graph.SCCDeps(), evalOne)
	}
	for _, c := range stats.Components {
		stats.Facts += c.Facts
		stats.Lookups += c.Lookups
	}
	if err := e.finish(stats, start, counters, provStart, evalSp, sp, runErr); err != nil {
		return nil, err
	}
	return collect(p, d, stats), nil
}

// fullLookup builds the component-local lookup over the union of the
// derived and stored extensions: derived facts are enumerated first,
// then stored facts — suppressing the stored tuples already present in
// the derived relation so no substitution is fed twice. Virtual
// predicates resolve against their per-query plan snapshot and nothing
// else. Each lookup performs one amortized governor check, which bounds
// the cancellation latency of even a single very large fixpoint round.
func (e *engine) fullLookup(p *plan, d *derived, gov *governor.Governor, cs *ComponentStats, rp *ruleProfiler) lookup {
	return func(a term.Atom, base term.Subst, fn func(term.Subst) bool) error {
		cs.Lookups++
		rp.countLookup()
		if err := gov.Tick(); err != nil {
			return err
		}
		// With profiling on, probes are charged to the current rule's
		// sink, which chains onto the query-wide counters.
		c := d.counters
		if rc := rp.storageCounters(); rc != nil {
			c = rc
		}
		if p.virtual != nil {
			if vr := p.virtual[a.Pred]; vr != nil {
				return matchRelation(vr, a, base, c, fn)
			}
		}
		rel := d.get(a.Pred)
		if rel == nil {
			return e.in.Store.MatchCounted(a, base, c, fn)
		}
		stopped := false
		if err := matchRelation(rel, a, base, c, func(s term.Subst) bool {
			if !fn(s) {
				stopped = true
				return false
			}
			return true
		}); err != nil {
			return err
		}
		if stopped {
			return nil
		}
		return matchStoreExcept(e.in.Store, a, base, rel, c, fn)
	}
}

// evalComponent computes the fixpoint of one SCC's rules. It runs on a
// single goroutine; under parallel evaluation the scheduler guarantees
// every component it depends on has completed, so the only relations
// that grow during the run are the component's own.
func (e *engine) evalComponent(p *plan, d *derived, gov *governor.Governor, comp []string, cs *ComponentStats, act *obs.Activity) error {
	inComp := make(map[string]bool, len(comp))
	for _, pred := range comp {
		inComp[pred] = true
	}
	var rules []term.Rule
	for _, pred := range comp {
		rules = append(rules, p.graph.RulesFor(pred)...)
	}
	recursive := false
	for _, r := range rules {
		for _, a := range r.Body {
			if inComp[a.Pred] {
				recursive = true
			}
		}
	}
	cs.Recursive = recursive
	var rp *ruleProfiler
	if e.prof != nil {
		rp = newRuleProfiler(e.prof, d.counters)
	}
	full := e.fullLookup(p, d, gov, cs, rp)

	// First round: apply every rule once against the current state.
	delta := newDerived(d.counters)
	fresh := 0
	err := applyRules(rules, full, rp, func(fact term.Atom, rule term.Rule, s term.Subst) error {
		added, err := d.insert(fact)
		if err != nil {
			return err
		}
		if added {
			fresh++
			rp.fresh()
			if err := gov.CountFacts(1); err != nil {
				return err
			}
			if err := recordProv(e.rec, gov, fact, rule, s); err != nil {
				return err
			}
			if _, err := delta.insert(fact); err != nil {
				return err
			}
		}
		return nil
	})
	// Commit the (possibly partial) round's counters even on a governed
	// stop, so the stats attached to the error reflect the work done.
	cs.Iterations = 1
	cs.Facts = fresh
	cs.DeltaSizes = append(cs.DeltaSizes, fresh)
	// Facts stream to the activity entry per round, not per component,
	// so a long recursive fixpoint shows movement in `kdb top`.
	act.AddProgress(int64(fresh), 0)
	if err != nil {
		return err
	}
	if !recursive {
		return nil
	}

	// Iterate to fixpoint, checking the governor between rounds.
	for {
		if e.strategy != naive && delta.empty() {
			return nil
		}
		if err := gov.Err(); err != nil {
			return err
		}
		if err := gov.CheckIterations(cs.Iterations + 1); err != nil {
			return err
		}
		nextDelta := newDerived(d.counters)
		grew := 0
		sink := func(fact term.Atom, rule term.Rule, s term.Subst) error {
			added, err := d.insert(fact)
			if err != nil {
				return err
			}
			if added {
				grew++
				rp.fresh()
				if err := gov.CountFacts(1); err != nil {
					return err
				}
				if err := recordProv(e.rec, gov, fact, rule, s); err != nil {
					return err
				}
				if _, err := nextDelta.insert(fact); err != nil {
					return err
				}
			}
			return nil
		}
		var err error
		if e.strategy != naive {
			err = applyRulesSemiNaive(rules, inComp, full, delta, gov, rp, sink)
		} else {
			err = applyRules(rules, full, rp, sink)
		}
		cs.Iterations++
		cs.Facts += grew
		cs.DeltaSizes = append(cs.DeltaSizes, grew)
		act.AddProgress(int64(grew), 0)
		if err != nil {
			return err
		}
		if grew == 0 {
			return nil
		}
		delta = nextDelta
	}
}

// deriveSink receives each derived ground head along with the rule that
// fired and the substitution that instantiated it, so the caller can
// record why-provenance without re-solving the body.
type deriveSink func(fact term.Atom, rule term.Rule, s term.Subst) error

// recordProv is the only provenance code on the hot derive path: with
// recording disabled (nil recorder) it is a single branch, adding no
// allocations per derived fact (enforced by TestProvenanceDisabledAllocs
// and the provenance benchmarks).
func recordProv(rec *prov.Recorder, gov *governor.Governor, fact term.Atom, rule term.Rule, s term.Subst) error {
	if rec == nil {
		return nil
	}
	return gov.CheckProvenanceEntries(rec.Record(fact, rule, rule.Body, s))
}

// applyRules derives the immediate consequences of the rules under the
// lookup and feeds each derived ground head to sink. Each rule's round
// is bracketed by the profiler (nil-safe when profiling is off).
func applyRules(rules []term.Rule, lk lookup, rp *ruleProfiler, sink deriveSink) error {
	for _, r := range rules {
		rp.begin(r)
		var derr error
		_, err := solveBody(r.Body, nil, lk, func(s term.Subst) bool {
			head := s.Apply(r.Head)
			if !head.IsGround() {
				derr = fmt.Errorf("eval: derived non-ground fact %v from %v", head, r)
				return false
			}
			if DeriveHook != nil {
				DeriveHook(head)
			}
			if err := sink(head, r, s); err != nil {
				derr = err
				return false
			}
			return true
		})
		rp.end()
		if err != nil {
			return err
		}
		if derr != nil {
			return derr
		}
	}
	return nil
}

// applyRulesSemiNaive derives consequences where at least one recursive
// body atom is resolved against the delta of the previous iteration. For
// a rule with k recursive occurrences it evaluates k differentiated
// variants, pinning occurrence i to the delta.
func applyRulesSemiNaive(rules []term.Rule, inComp map[string]bool, full lookup, delta *derived, gov *governor.Governor, rp *ruleProfiler, sink deriveSink) error {
	for _, r := range rules {
		var recIdx []int
		for i, a := range r.Body {
			if inComp[a.Pred] {
				recIdx = append(recIdx, i)
			}
		}
		if len(recIdx) == 0 {
			continue // non-recursive rules contribute nothing new after round one
		}
		rp.begin(r)
		for _, pin := range recIdx {
			pinned := pin
			var derr error
			_, err := solveBodyPinned(r.Body, pinned, full, delta, gov, rp, nil, func(s term.Subst) bool {
				head := s.Apply(r.Head)
				if !head.IsGround() {
					derr = fmt.Errorf("eval: derived non-ground fact %v from %v", head, r)
					return false
				}
				if DeriveHook != nil {
					DeriveHook(head)
				}
				if err := sink(head, r, s); err != nil {
					derr = err
					return false
				}
				return true
			})
			if err != nil {
				rp.end()
				return err
			}
			if derr != nil {
				rp.end()
				return derr
			}
		}
		rp.end()
	}
	return nil
}

// solveBodyPinned is solveBody with one body occurrence (by original
// index) resolved against the delta relations instead of the full ones.
func solveBodyPinned(body []term.Atom, pin int, full lookup, delta *derived, gov *governor.Governor, rp *ruleProfiler, base term.Subst, fn func(term.Subst) bool) (bool, error) {
	type tagged struct {
		atom   term.Atom
		pinned bool
	}
	items := make([]tagged, len(body))
	for i, a := range body {
		items[i] = tagged{atom: a, pinned: i == pin}
	}
	var solve func(remaining []tagged, s term.Subst) (bool, error)
	solve = func(remaining []tagged, s term.Subst) (bool, error) {
		if len(remaining) == 0 {
			return fn(s), nil
		}
		atoms := make([]term.Atom, len(remaining))
		for i, it := range remaining {
			atoms[i] = it.atom
		}
		idx, err := chooseAtom(atoms, s)
		if err != nil {
			return false, err
		}
		it := remaining[idx]
		rest := make([]tagged, 0, len(remaining)-1)
		rest = append(rest, remaining[:idx]...)
		rest = append(rest, remaining[idx+1:]...)
		if term.IsComparison(it.atom) {
			// Delegate comparison handling to solveBody over a singleton,
			// then continue with rest.
			cont := true
			_, err := solveBody([]term.Atom{it.atom}, s, full, func(ext term.Subst) bool {
				c, err2 := solve(rest, ext)
				if err2 != nil {
					err = err2
					return false
				}
				cont = c
				return c
			})
			return cont, err
		}
		lk := full
		if it.pinned {
			lk = func(a term.Atom, b term.Subst, f func(term.Subst) bool) error {
				if err := gov.Tick(); err != nil {
					return err
				}
				// rp.storageCounters() is nil when profiling is off; the
				// delta relation then falls back to its attached (query-
				// wide) counters.
				return delta.match(a, b, rp.storageCounters(), f)
			}
		}
		cont := true
		err = lk(it.atom, s, func(ext term.Subst) bool {
			c, err2 := solve(rest, ext)
			if err2 != nil {
				err = err2
				return false
			}
			cont = c
			return c
		})
		return cont, err
	}
	return solve(items, base)
}

// collect extracts the result tuples from the derived query relation.
func collect(p *plan, d *derived, stats *EvalStats) *Result {
	res := &Result{Vars: p.vars, Stats: stats}
	r := d.get(queryPredName)
	if r == nil {
		return res
	}
	r.Scan(func(t storage.Tuple) bool {
		res.Tuples = append(res.Tuples, t.Clone())
		return true
	})
	return res
}
