package eval

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"kdb/internal/obs/profile"
	"kdb/internal/term"
)

// TestProfileDisabledAllocs is the zero-overhead gate for the profiling
// hook: with profiling off (nil ruleProfiler — the default for every
// engine), the per-rule and per-fact calls must not allocate. This
// mirrors TestProvenanceDisabledAllocs: observability that is off must
// be free.
func TestProfileDisabledAllocs(t *testing.T) {
	x, y := term.Var("X"), term.Var("Y")
	rule := term.NewRule(term.NewAtom("p", x, y), term.NewAtom("q", x, y))
	var rp *ruleProfiler
	allocs := testing.AllocsPerRun(200, func() {
		rp.begin(rule)
		rp.countLookup()
		if rp.storageCounters() != nil {
			t.Fatal("nil profiler returned counters")
		}
		rp.fresh()
		rp.end()
	})
	if allocs != 0 {
		t.Errorf("disabled profile hook allocates %v per rule round, want 0", allocs)
	}
}

// TestProfileAcrossEngines is the cross-engine parity check: on a
// recursive program, every engine must profile the same set of source
// rules (the synthetic query rule excluded), each with at least one
// round, and agree on the answers they were profiling in the first
// place. The production engine runs this bound goal top-down, and its
// profile says so.
func TestProfileAcrossEngines(t *testing.T) {
	src := `
edge(a, b). edge(b, c). edge(c, d).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
`
	wantRules := []string{
		"path(X, Y) :- edge(X, Y).",
		"path(X, Y) :- edge(X, Z), path(Z, Y).",
	}
	mks := map[string]struct {
		mk  func(Input, ...EngineOption) Engine
		ran string
	}{
		"naive":     {NewNaive, "naive"},
		"seminaive": {NewSemiNaive, "seminaive"},
		"topdown":   {NewTopDown, "topdown"},
		"auto":      {New, "topdown"},
	}
	for name, c := range mks {
		t.Run(name, func(t *testing.T) {
			p := profile.New()
			e := c.mk(load(t, src), WithProfile(p))
			res, err := e.RetrieveContext(context.Background(), query(t, `retrieve path(a, Y).`))
			if err != nil {
				t.Fatalf("retrieve: %v", err)
			}
			if got := len(res.Tuples); got != 3 {
				t.Fatalf("answers = %d, want 3", got)
			}
			if p.Engine() != c.ran {
				t.Errorf("profile engine = %q, want %q", p.Engine(), c.ran)
			}
			if p.Wall() <= 0 {
				t.Errorf("profile wall = %v, want > 0", p.Wall())
			}
			var got []string
			var tuples int64
			for _, r := range p.Rows() {
				if r.Synthetic {
					continue
				}
				got = append(got, r.Rule)
				tuples += r.Tuples
				if r.Iterations <= 0 {
					t.Errorf("rule %q: iterations = %d, want > 0", r.Rule, r.Iterations)
				}
				if r.Wall < 0 {
					t.Errorf("rule %q: negative wall %v", r.Rule, r.Wall)
				}
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, wantRules) {
				t.Errorf("profiled rules = %v, want %v", got, wantRules)
			}
			if tuples <= 0 {
				t.Errorf("non-synthetic tuples = %d, want > 0", tuples)
			}
		})
	}
}

// TestProfileParallelSemiNaive exercises the collector under the
// parallel scheduler: independent SCCs report from separate worker
// goroutines into one Profile (run with -race to check the locking).
func TestProfileParallelSemiNaive(t *testing.T) {
	src := `
a(1). a(2). b(1). b(2).
pa(X) :- a(X).
pb(X) :- b(X).
both(X) :- pa(X), pb(X).
`
	p := profile.New()
	e := NewSemiNaive(load(t, src), WithWorkers(4), WithProfile(p))
	if _, err := e.RetrieveContext(context.Background(), query(t, `retrieve both(X).`)); err != nil {
		t.Fatalf("retrieve: %v", err)
	}
	rules := 0
	for _, r := range p.Rows() {
		if !r.Synthetic {
			rules++
		}
	}
	if rules != 3 {
		t.Errorf("profiled %d source rules, want 3", rules)
	}
}

// TestProfileProbeSplit checks the index/full-scan split: probes served
// by an index must appear as Probes - FullScans, and the per-rule
// counter chain must not lose the engine-total counts.
func TestProfileProbeSplit(t *testing.T) {
	src := `
edge(a, b). edge(b, c). edge(c, d). edge(d, e).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
`
	p := profile.New()
	e := NewSemiNaive(load(t, src), WithProfile(p))
	res, err := e.RetrieveContext(context.Background(), query(t, `retrieve path(X, Y).`))
	if err != nil {
		t.Fatalf("retrieve: %v", err)
	}
	var probes, scans int64
	for _, r := range p.Rows() {
		probes += r.Probes
		scans += r.FullScans
		if r.FullScans > r.Probes {
			t.Errorf("rule %q: full_scans %d > probes %d", r.Rule, r.FullScans, r.Probes)
		}
	}
	if probes == 0 {
		t.Fatal("no probes attributed to any rule")
	}
	if scans > probes {
		t.Fatalf("full scans %d exceed probes %d", scans, probes)
	}
	// The chained per-rule counters must feed the engine totals too.
	st := res.Stats
	if st == nil {
		t.Fatal("no stats recorded")
	}
	if st.Probes < probes {
		t.Errorf("engine total probes %d < per-rule sum %d (chain dropped counts)", st.Probes, probes)
	}
	if st.FullScans < scans {
		t.Errorf("engine total full scans %d < per-rule sum %d", st.FullScans, scans)
	}
}
