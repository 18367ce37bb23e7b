package kb

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"kdb/internal/parser"
	"kdb/internal/term"
)

func TestWithParallelism(t *testing.T) {
	k := New(WithParallelism(4))
	if got := k.Parallelism(); got != 4 {
		t.Errorf("Parallelism() = %d, want 4", got)
	}
	k.SetParallelism(2)
	if got := k.Parallelism(); got != 2 {
		t.Errorf("after SetParallelism(2): %d", got)
	}
	// n <= 0 selects GOMAXPROCS.
	k.SetParallelism(0)
	if got := k.Parallelism(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("SetParallelism(0) → %d, want GOMAXPROCS (%d)", got, runtime.GOMAXPROCS(0))
	}
	if got := New().Parallelism(); got != 1 {
		t.Errorf("default parallelism = %d, want 1", got)
	}
}

func TestLastStatsAfterRetrieve(t *testing.T) {
	k := loadKB(t, universityKB)
	if k.LastStats() != nil {
		t.Fatal("stats must be nil before any retrieve")
	}
	if _, err := k.ExecStringContext(context.Background(), "retrieve prior(X, Y)."); err != nil {
		t.Fatal(err)
	}
	st := k.LastStats()
	if st == nil {
		t.Fatal("no stats after retrieve")
	}
	if st.Engine != "seminaive" || st.Workers != 1 {
		t.Errorf("engine=%q workers=%d", st.Engine, st.Workers)
	}
	if st.Facts == 0 || st.Probes == 0 {
		t.Errorf("counters empty: %+v", st)
	}
	// The prior SCC is recursive: its iteration trail must be recorded.
	found := false
	for _, c := range st.Components {
		if c.Skipped {
			continue
		}
		for _, p := range c.Preds {
			if p == "prior" {
				found = true
				if !c.Recursive || c.Iterations < 2 {
					t.Errorf("prior component: %+v", c)
				}
			}
		}
	}
	if !found {
		t.Errorf("prior component missing from stats: %+v", st.Components)
	}
	// Pointer freshness: a new retrieve stores a new record.
	if _, err := k.ExecStringContext(context.Background(), "retrieve honor(X)."); err != nil {
		t.Fatal(err)
	}
	if k.LastStats() == st {
		t.Error("LastStats must change after another retrieve")
	}
}

// TestLastStatsPerEngine: the stats name the strategy each query ran
// on — top-down for a bound goal, semi-naive for a free one.
func TestLastStatsPerEngine(t *testing.T) {
	x, y := term.Var("X"), term.Var("Y")
	for _, tc := range []struct {
		subject term.Atom
		engine  string
	}{
		{term.NewAtom("can_ta", x, term.Sym("databases")), "topdown"},
		{term.NewAtom("can_ta", x, y), "seminaive"},
	} {
		k := loadKB(t, universityKB)
		if _, err := k.ExecContext(context.Background(), &parser.Retrieve{Subject: tc.subject}); err != nil {
			t.Fatalf("%v: %v", tc.subject, err)
		}
		st := k.LastStats()
		if st == nil {
			t.Fatalf("%v: no stats", tc.subject)
		}
		if st.Engine != tc.engine {
			t.Errorf("%v: stats engine = %q, want %q", tc.subject, st.Engine, tc.engine)
		}
	}
}

func TestParallelKBAgreesWithSequential(t *testing.T) {
	seq := loadKB(t, universityKB)
	par := loadKB(t, universityKB)
	par.SetParallelism(8)
	for _, q := range []string{
		`retrieve prior(X, Y).`,
		`retrieve can_ta(X, databases).`,
		`retrieve honor(X) where enroll(X, databases).`,
	} {
		if a, b := execStr(t, seq, q), execStr(t, par, q); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: sequential %q != parallel %q", q, a, b)
		}
	}
	st := par.LastStats()
	if st == nil || st.Workers != 8 || !strings.HasSuffix(st.Engine, "-par") {
		t.Errorf("parallel stats: %+v", st)
	}
}

// TestCheckConstraintsRecordsStats: a constraint check records the
// statistics of every constraint it evaluated, summed.
func TestCheckConstraintsRecordsStats(t *testing.T) {
	const honorIC, priorIC = ":- honor(X), student(X, cs, G).\n", ":- prior(X, X).\n"
	facts := func(constraints string) int {
		t.Helper()
		k := loadKB(t, universityKB+"\n"+constraints)
		if _, err := k.CheckConstraintsContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		st := k.LastStats()
		if st == nil {
			t.Fatal("constraint checking must record stats")
		}
		return st.Facts
	}
	one, other := facts(honorIC), facts(priorIC)
	if one == 0 || other == 0 {
		t.Fatalf("constraints derived %d and %d facts; both must evaluate rules", one, other)
	}
	if both := facts(honorIC + priorIC); both != one+other {
		t.Errorf("two constraints recorded facts=%d, want the sum %d+%d", both, one, other)
	}
}
