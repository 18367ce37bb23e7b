package eval

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// TestProductionEngineSelection pins the query-to-strategy choice: a
// query that binds an argument of a rule-defined predicate runs
// top-down, and every other query runs semi-naive.
func TestProductionEngineSelection(t *testing.T) {
	cases := []struct {
		q    string
		want string
	}{
		{`retrieve prior(databases, Y).`, "topdown"},                  // bound recursive goal
		{`retrieve prior(X, programming).`, "topdown"},                // bound second argument
		{`retrieve can_ta(ann, databases).`, "topdown"},               // ground IDB subject
		{`retrieve answer(X) where can_ta(X, databases).`, "topdown"}, // bound IDB atom in the qualifier
		{`retrieve prior(X, Y).`, "seminaive"},                        // free goal
		{`retrieve prior(X, Y) where X = databases.`, "seminaive"},    // bound only by a comparison
		{`retrieve enroll(ann, C).`, "seminaive"},                     // stored-relation read with a constant
		{`retrieve honor(X) where enroll(X, databases).`, "seminaive"},
		{`retrieve sys_fake(a, N).`, "seminaive"}, // virtual-relation read
	}
	for _, tc := range cases {
		in := load(t, universityDB)
		fv := defaultFake()
		in.Virtual = fv
		e := New(in)
		res, err := e.RetrieveContext(context.Background(), query(t, tc.q))
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		if got := res.Stats.Engine; got != tc.want {
			t.Errorf("%s ran on %s, want %s", tc.q, got, tc.want)
		}
		oracle, err := NewNaive(in).RetrieveContext(context.Background(), query(t, tc.q))
		if err != nil {
			t.Fatalf("%s: naive: %v", tc.q, err)
		}
		if !reflect.DeepEqual(res.Strings(), oracle.Strings()) {
			t.Errorf("%s = %v, naive = %v", tc.q, res.Strings(), oracle.Strings())
		}
	}
}

// TestProductionEnginePlansOnce: the plan is built once per query and
// the chosen strategy runs on it. Building the plan snapshots every
// virtual relation the program references, so a second build would
// show as a second snapshot.
func TestProductionEnginePlansOnce(t *testing.T) {
	in := load(t, `
edge(a, b). edge(b, c).
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
linked(X, Y) :- sys_fake(X, N), reach(X, Y).
`)
	for _, q := range []string{`retrieve linked(a, Y).`, `retrieve linked(X, Y).`} {
		fv := defaultFake()
		in.Virtual = fv
		if _, err := New(in).RetrieveContext(context.Background(), query(t, q)); err != nil {
			t.Fatal(err)
		}
		if fv.snaps != 1 {
			t.Errorf("%s: %d snapshots, want 1", q, fv.snaps)
		}
	}
}

// TestProductionEngineAddsNoAllocs: choosing the strategy costs nothing
// on the serving path's shape, a point read of a stored relation. The
// production engine must allocate exactly what semi-naive does.
func TestProductionEngineAddsNoAllocs(t *testing.T) {
	in := load(t, `item(k1, 1). item(k2, 2). item(k3, 3).`)
	q := query(t, `retrieve item(k2, V).`)
	ctx := context.Background()
	allocs := func(mk func(Input, ...EngineOption) Engine) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, err := mk(in).RetrieveContext(ctx, q); err != nil {
				t.Fatal(err)
			}
		})
	}
	if prod, semi := allocs(New), allocs(NewSemiNaive); prod != semi {
		t.Errorf("production engine allocates %v per point read, semi-naive %v", prod, semi)
	}
}

// TestQuickProductionMatchesNaive is the differential check of the
// production engine against the naive oracle: random programs, each
// queried once free (semi-naive) and once bound (top-down).
func TestQuickProductionMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src, nodes := randomProgram(r)
		in := load(t, src)
		for qs, ran := range map[string]string{
			`retrieve q(X, Y).`: "seminaive",
			fmt.Sprintf(`retrieve q(n%d, Y).`, r.Intn(nodes)): "topdown",
		} {
			q := query(t, qs)
			want, err := NewNaive(in).RetrieveContext(context.Background(), q)
			if err != nil {
				t.Logf("seed %d %s: naive: %v", seed, qs, err)
				return false
			}
			e := New(in)
			got, err := e.RetrieveContext(context.Background(), q)
			if err != nil {
				t.Logf("seed %d %s: %v", seed, qs, err)
				return false
			}
			if st := got.Stats; st.Engine != ran {
				t.Logf("seed %d %s: ran on %s, want %s", seed, qs, st.Engine, ran)
				return false
			}
			if !reflect.DeepEqual(got.Strings(), want.Strings()) {
				t.Logf("seed %d %s: production=%v naive=%v", seed, qs, got.Strings(), want.Strings())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestProductionBoundGoalStaysInItsComponent: a bound goal runs
// top-down and touches only what its constant reaches. A second chain
// the goal cannot reach adds no facts and no lookups to its evaluation.
func TestProductionBoundGoalStaysInItsComponent(t *testing.T) {
	chains := func(names ...string) Input {
		var src strings.Builder
		for _, c := range names {
			for i := 0; i < 20; i++ {
				fmt.Fprintf(&src, "edge(%s%02d, %s%02d).\n", c, i, c, i+1)
			}
		}
		src.WriteString("path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\n")
		return load(t, src.String())
	}
	q := query(t, `retrieve path(l00, Y).`)
	run := func(in Input) *EvalStats {
		e := New(in)
		res, err := e.RetrieveContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != 20 {
			t.Fatalf("reachable from l00 = %d, want 20", len(res.Tuples))
		}
		return res.Stats
	}
	alone, both := run(chains("l")), run(chains("l", "r"))
	if both.Engine != "topdown" {
		t.Errorf("bound goal ran on %s, want topdown", both.Engine)
	}
	if both.Facts != alone.Facts || both.Lookups != alone.Lookups {
		t.Errorf("unreachable chain changed the work: facts %d vs %d, lookups %d vs %d",
			both.Facts, alone.Facts, both.Lookups, alone.Lookups)
	}
}

// TestEvalStatsAdd: summing the records of one query's evaluations adds
// every counter, appends components in run order, names each strategy
// once in run order, and keeps the last stop reason.
func TestEvalStatsAdd(t *testing.T) {
	td := func() *EvalStats {
		return &EvalStats{Engine: "topdown", Workers: 1, Facts: 3, Lookups: 5, Passes: 2, Tables: 1, Probes: 7}
	}
	sn := &EvalStats{Engine: "seminaive", Workers: 1, Facts: 4, Lookups: 6, Probes: 1, FullScans: 1,
		Candidates: 9, IndexBuilds: 2, ProvEntries: 4, StopReason: "limit:facts",
		Components: []ComponentStats{{Preds: []string{"p"}, Iterations: 3}}}
	first := td()
	var sum *EvalStats
	for _, st := range []*EvalStats{first, nil, sn, td()} {
		sum = sum.Add(st)
	}
	if sum != first {
		t.Error("the sum must start from the first record, like append")
	}
	want := EvalStats{Engine: "topdown+seminaive", Workers: 1, Facts: 10, Lookups: 16, Passes: 4, Tables: 2,
		Probes: 15, FullScans: 1, Candidates: 9, IndexBuilds: 2, ProvEntries: 4, StopReason: "limit:facts",
		Components: []ComponentStats{{Preds: []string{"p"}, Iterations: 3}}}
	if !reflect.DeepEqual(*sum, want) {
		t.Errorf("sum = %+v\nwant  %+v", *sum, want)
	}
	if got := sum.Iterations(); got != 7 {
		t.Errorf("Iterations() = %d, want 4 passes + 3 rounds", got)
	}
	if sn.Facts != 4 || len(sn.Components) != 1 {
		t.Errorf("Add changed the record it folded in: %+v", sn)
	}
	if (*EvalStats)(nil).Add(nil) != nil {
		t.Error("the sum of no records must be nil")
	}
}
