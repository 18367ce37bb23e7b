package eval

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"kdb/internal/governor"
	"kdb/internal/term"
)

// expensiveInput builds a divergently expensive (but finite) program: the
// transitive closure of an n-node cycle has n² reachable pairs and needs
// ~n fixpoint rounds, far more work than any test deadline allows.
func expensiveInput(t testing.TB, n int) Input {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "edge(n%d, n%d).\n", i, (i+1)%n)
	}
	sb.WriteString("reach(X, Y) :- edge(X, Y).\n")
	sb.WriteString("reach(X, Y) :- edge(X, Z), reach(Z, Y).\n")
	return load(t, sb.String())
}

// governedRun is one governed evaluation: an engine, the query it
// runs, and the strategy its stats must name.
type governedRun struct {
	name string
	e    Engine
	q    Query
	ran  string
}

// governedRuns pairs every engine, in sequential and parallel flavors
// and built with the given options, with a query. The fixed strategies
// run free; the production engine runs free, which it evaluates
// semi-naive, and bound, which it evaluates top-down.
func governedRuns(t testing.TB, in Input, free, bound string, opts ...EngineOption) []governedRun {
	par := append(append([]EngineOption{}, opts...), WithWorkers(4))
	var runs []governedRun
	for _, e := range []Engine{
		NewNaive(in, opts...),
		NewNaive(in, par...),
		NewSemiNaive(in, opts...),
		NewSemiNaive(in, par...),
		NewTopDown(in, opts...),
	} {
		runs = append(runs, governedRun{e: e, q: query(t, free), ran: e.Name()})
	}
	runs = append(runs,
		governedRun{name: "auto-free", e: New(in, opts...), q: query(t, free), ran: "seminaive"},
		governedRun{name: "auto-bound", e: New(in, opts...), q: query(t, bound), ran: "topdown"})
	for i := range runs {
		if runs[i].name == "" {
			runs[i].name = runs[i].e.Name()
		}
		runs[i].name = fmt.Sprintf("%d-%s", i, runs[i].name)
	}
	return runs
}

// checkRan fails the test unless the evaluation's stats — on the
// answer, or on the *StopError of a governed stop — name the strategy
// the run expects.
func (r governedRun) checkRan(t *testing.T, res *Result, err error) {
	t.Helper()
	if st := StatsOf(res, err); st == nil || st.Engine != r.ran {
		t.Errorf("stats = %+v, want engine %s", st, r.ran)
	}
}

func TestDeadlineStopsEveryEngine(t *testing.T) {
	in := expensiveInput(t, 600)
	for _, r := range governedRuns(t, in, `retrieve reach(X, Y).`, `retrieve reach(n0, Y).`) {
		t.Run(r.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := r.e.RetrieveContext(ctx, r.q)
			elapsed := time.Since(start)
			if err == nil {
				t.Fatal("expected a deadline error, query completed")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("err = %v, want to wrap context.DeadlineExceeded", err)
			}
			if !errors.Is(err, governor.ErrCanceled) {
				t.Errorf("err = %v, want to match governor.ErrCanceled", err)
			}
			if elapsed > 500*time.Millisecond {
				t.Errorf("took %v to observe a 100ms deadline", elapsed)
			}
			var se *StopError
			if !errors.As(err, &se) {
				t.Fatalf("err = %v, want *StopError with stats", err)
			}
			if se.Stats == nil || se.Stats.StopReason != "deadline" {
				t.Errorf("stats = %+v, want StopReason deadline", se.Stats)
			}
			r.checkRan(t, nil, err)
		})
	}
}

func TestMaxWallLimitViaOptions(t *testing.T) {
	in := expensiveInput(t, 600)
	limits := WithLimits(governor.Limits{MaxWall: 50 * time.Millisecond})
	for _, r := range governedRuns(t, in, `retrieve reach(X, Y).`, `retrieve reach(n0, Y).`, limits) {
		t.Run(r.name, func(t *testing.T) {
			start := time.Now()
			_, err := r.e.RetrieveContext(context.Background(), r.q) // no deadline: the limit alone must stop it
			if err == nil {
				t.Fatal("expected a deadline error, query completed")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("err = %v, want to wrap context.DeadlineExceeded", err)
			}
			if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
				t.Errorf("took %v to observe a 50ms wall limit", elapsed)
			}
			r.checkRan(t, nil, err)
		})
	}
}

func TestPreCanceledContext(t *testing.T) {
	in := expensiveInput(t, 600)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range governedRuns(t, in, `retrieve reach(X, Y).`, `retrieve reach(n0, Y).`) {
		t.Run(r.name, func(t *testing.T) {
			start := time.Now()
			_, err := r.e.RetrieveContext(ctx, r.q)
			if !errors.Is(err, governor.ErrCanceled) {
				t.Errorf("err = %v, want governor.ErrCanceled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want to wrap context.Canceled", err)
			}
			if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
				t.Errorf("took %v to observe a pre-canceled context", elapsed)
			}
			r.checkRan(t, nil, err)
		})
	}
}

func TestMaxFactsLimit(t *testing.T) {
	in := expensiveInput(t, 200)
	limits := WithLimits(governor.Limits{MaxFacts: 100})
	for _, r := range governedRuns(t, in, `retrieve reach(X, Y).`, `retrieve reach(n0, Y).`, limits) {
		t.Run(r.name, func(t *testing.T) {
			_, err := r.e.RetrieveContext(context.Background(), r.q)
			var le *governor.LimitError
			if !errors.As(err, &le) {
				t.Fatalf("err = %v, want *LimitError", err)
			}
			if le.Kind != governor.LimitFacts {
				t.Errorf("kind = %q, want %q", le.Kind, governor.LimitFacts)
			}
			var se *StopError
			if !errors.As(err, &se) || se.Stats == nil {
				t.Fatalf("err = %v, want *StopError with stats", err)
			}
			if se.Stats.StopReason != "limit:facts" {
				t.Errorf("StopReason = %q", se.Stats.StopReason)
			}
			r.checkRan(t, nil, err)
		})
	}
}

func TestMaxIterationsLimit(t *testing.T) {
	in := expensiveInput(t, 200)
	limits := WithLimits(governor.Limits{MaxIterations: 2})
	for _, r := range governedRuns(t, in, `retrieve reach(X, Y).`, `retrieve reach(n0, Y).`, limits) {
		t.Run(r.name, func(t *testing.T) {
			_, err := r.e.RetrieveContext(context.Background(), r.q)
			var le *governor.LimitError
			if !errors.As(err, &le) {
				t.Fatalf("err = %v, want *LimitError", err)
			}
			if le.Kind != governor.LimitIterations {
				t.Errorf("kind = %q, want %q", le.Kind, governor.LimitIterations)
			}
			r.checkRan(t, nil, err)
		})
	}
}

func TestMaxTableEntriesLimit(t *testing.T) {
	// Two IDB predicates guarantee at least two call-pattern tables.
	in := load(t, `
edge(a, b). edge(b, c). edge(c, d).
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
twohop(X, Y) :- reach(X, Z), reach(Z, Y).
`)
	limits := WithLimits(governor.Limits{MaxTableEntries: 1})
	// The production engine runs the bound goal top-down, so the table
	// limit stops it too.
	for _, r := range []governedRun{
		{e: NewTopDown(in, limits), q: query(t, `retrieve twohop(X, Y).`), ran: "topdown"},
		{e: New(in, limits), q: query(t, `retrieve twohop(a, Y).`), ran: "topdown"},
	} {
		_, err := r.e.RetrieveContext(context.Background(), r.q)
		var le *governor.LimitError
		if !errors.As(err, &le) {
			t.Fatalf("%s: err = %v, want *LimitError", r.e.Name(), err)
		}
		if le.Kind != governor.LimitTableEntries {
			t.Errorf("%s: kind = %q, want %q", r.e.Name(), le.Kind, governor.LimitTableEntries)
		}
		r.checkRan(t, nil, err)
	}
}

func TestLimitsDoNotAffectCompletingQueries(t *testing.T) {
	in := load(t, universityDB)
	limits := WithLimits(governor.Limits{
		MaxWall:       10 * time.Second,
		MaxFacts:      100000,
		MaxIterations: 100000,
	})
	free := `retrieve prior(X, Y) where X = databases.`
	for _, r := range governedRuns(t, in, free, `retrieve prior(databases, X).`, limits) {
		t.Run(r.name, func(t *testing.T) {
			res, err := r.e.RetrieveContext(context.Background(), r.q)
			if err != nil {
				t.Fatalf("generous limits must not interfere: %v", err)
			}
			if len(res.Tuples) != 2 {
				t.Errorf("answers = %d, want 2", len(res.Tuples))
			}
			r.checkRan(t, res, err)
		})
	}
}

func TestPanicContainment(t *testing.T) {
	in := expensiveInput(t, 10)
	DeriveHook = func(term.Atom) { panic("injected failure") }
	defer func() { DeriveHook = nil }()
	for _, r := range governedRuns(t, in, `retrieve reach(X, Y).`, `retrieve reach(n0, Y).`) {
		t.Run(r.name, func(t *testing.T) {
			_, err := r.e.RetrieveContext(context.Background(), r.q)
			var pe *governor.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *PanicError", err)
			}
			if !strings.Contains(pe.Error(), "injected failure") {
				t.Errorf("panic value lost: %v", pe)
			}
		})
	}
}

// TestPanicContainmentParallelWorkers pins the worker-goroutine recover
// path: a panic inside a scheduler worker must surface as an error from
// RetrieveContext, not crash the process.
func TestPanicContainmentParallelWorkers(t *testing.T) {
	// Several independent SCCs so the DAG scheduler actually fans out.
	in := load(t, `
e1(a, b). e2(a, b). e3(a, b). e4(a, b).
p1(X, Y) :- e1(X, Y).
p2(X, Y) :- e2(X, Y).
p3(X, Y) :- e3(X, Y).
p4(X, Y) :- e4(X, Y).
all(X, Y) :- p1(X, Y), p2(X, Y), p3(X, Y), p4(X, Y).
`)
	q := query(t, `retrieve all(X, Y).`)
	DeriveHook = func(term.Atom) { panic("worker panic") }
	defer func() { DeriveHook = nil }()
	e := NewSemiNaive(in, WithWorkers(4))
	_, err := e.RetrieveContext(context.Background(), q)
	var pe *governor.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
}

func TestStatsCarryStopReason(t *testing.T) {
	in := expensiveInput(t, 200)
	q := query(t, `retrieve reach(X, Y).`)
	e := NewSemiNaive(in, WithLimits(governor.Limits{MaxFacts: 50}))
	_, err := e.RetrieveContext(context.Background(), q)
	var se *StopError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StopError", err)
	}
	if se.Stats.StopReason != "limit:facts" {
		t.Errorf("StopReason = %q", se.Stats.StopReason)
	}
	if !strings.Contains(se.Stats.String(), "stop=limit:facts") {
		t.Errorf("stats string %q must mention the stop reason", se.Stats.String())
	}
}
