package kb

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"kdb/internal/eval"
	"kdb/internal/governor"
	"kdb/internal/term"
)

// cycleKB is an expensive finite program: the transitive closure of an
// n-node cycle (n² pairs, ~n fixpoint rounds).
func cycleKB(t testing.TB, n int) *KB {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "edge(n%d, n%d).\n", i, (i+1)%n)
	}
	sb.WriteString("reach(X, Y) :- edge(X, Y).\n")
	sb.WriteString("reach(X, Y) :- edge(X, Z), reach(Z, Y).\n")
	return loadKB(t, sb.String())
}

// TestKBContextDeadline: the deadline stops a query on either strategy
// the kb picks — semi-naive for the free goal, top-down for the bound
// one.
func TestKBContextDeadline(t *testing.T) {
	for _, tc := range []struct{ engine, stmt string }{
		{"seminaive", `retrieve reach(X, Y).`},
		{"topdown", `retrieve reach(n0, Y).`},
	} {
		t.Run(tc.engine, func(t *testing.T) {
			k := cycleKB(t, 500)
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := k.ExecStringContext(ctx, tc.stmt)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("err = %v, want to wrap context.DeadlineExceeded", err)
			}
			if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
				t.Errorf("took %v to observe the deadline", elapsed)
			}
			// The governed stop must be observable after the fact.
			if st := k.LastStats(); st == nil || st.StopReason != "deadline" || st.Engine != tc.engine {
				t.Errorf("LastStats = %+v, want StopReason deadline on %s", st, tc.engine)
			}
		})
	}
}

func TestKBQueryLimitsOption(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "edge(n%d, n%d).\n", i, (i+1)%200)
	}
	sb.WriteString("reach(X, Y) :- edge(X, Y).\n")
	sb.WriteString("reach(X, Y) :- edge(X, Z), reach(Z, Y).\n")
	k := New(WithQueryLimits(governor.Limits{MaxFacts: 100}))
	if err := k.LoadString(sb.String()); err != nil {
		t.Fatal(err)
	}
	_, err := k.ExecStringContext(context.Background(), `retrieve reach(X, Y).`)
	var le *governor.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LimitError", err)
	}
	if le.Kind != governor.LimitFacts {
		t.Errorf("kind = %q, want %q", le.Kind, governor.LimitFacts)
	}
	// Raising the limits at runtime lets the same query finish.
	k.SetQueryLimits(governor.Limits{})
	if _, err := k.ExecStringContext(context.Background(), `retrieve reach(n0, Y).`); err != nil {
		t.Fatalf("after clearing limits: %v", err)
	}
}

func TestKBDescribeNodeLimit(t *testing.T) {
	k := loadKB(t, universityKB)
	k.SetQueryLimits(governor.Limits{MaxDescribeNodes: 1})
	_, err := k.ExecStringContext(context.Background(), `describe can_ta(X, databases).`)
	var le *governor.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LimitError", err)
	}
	if le.Kind != governor.LimitDescribeNodes {
		t.Errorf("kind = %q, want %q", le.Kind, governor.LimitDescribeNodes)
	}
	k.SetQueryLimits(governor.Limits{})
	if _, err := k.ExecStringContext(context.Background(), `describe can_ta(X, databases).`); err != nil {
		t.Fatalf("after clearing limits: %v", err)
	}
}

func TestKBDescribeContextCancel(t *testing.T) {
	k := loadKB(t, universityKB)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := k.ExecStringContext(ctx, `describe can_ta(X, databases).`)
	if !errors.Is(err, governor.ErrCanceled) {
		t.Errorf("err = %v, want governor.ErrCanceled", err)
	}
}

func TestKBPanicSurfacesAsError(t *testing.T) {
	k := cycleKB(t, 5)
	eval.DeriveHook = func(term.Atom) { panic("injected kb panic") }
	defer func() { eval.DeriveHook = nil }()
	_, err := k.ExecStringContext(context.Background(), `retrieve reach(X, Y).`)
	var pe *governor.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
}
