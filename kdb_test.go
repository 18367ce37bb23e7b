package kdb_test

import (
	"context"
	"strings"
	"testing"

	"kdb"
)

func loadUniversity(t testing.TB) *kdb.KB {
	t.Helper()
	k := kdb.New()
	if err := k.LoadFile("testdata/university.kdb"); err != nil {
		t.Fatalf("load: %v", err)
	}
	return k
}

func loadRoutes(t testing.TB) *kdb.KB {
	t.Helper()
	k := kdb.New()
	if err := k.LoadFile("testdata/routes.kdb"); err != nil {
		t.Fatalf("load: %v", err)
	}
	return k
}

func exec(t testing.TB, k *kdb.KB, q string) string {
	t.Helper()
	res, err := k.ExecStringContext(context.Background(), q)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return res.String()
}

// execOn is exec that also fails the test unless the kb ran the
// statement on the named strategy.
func execOn(t testing.TB, k *kdb.KB, q, engine string) string {
	t.Helper()
	out := exec(t, k, q)
	if st := k.LastStats(); st == nil || st.Engine != engine {
		t.Errorf("%s ran on %+v, want %s", q, st, engine)
	}
	return out
}

func TestPublicAPIQuickstart(t *testing.T) {
	k := kdb.New()
	if err := k.LoadString(`
student(ann, math, 3.9).
honor(X) :- student(X, M, G), G > 3.7.
`); err != nil {
		t.Fatal(err)
	}
	if got := exec(t, k, `retrieve honor(X).`); got != "honor(ann)" {
		t.Errorf("retrieve = %q", got)
	}
	if got := exec(t, k, `describe honor(X).`); got != "honor(X) <- student(X, M, G) and G > 3.7" {
		t.Errorf("describe = %q", got)
	}
}

func TestPublicAPITermConstructors(t *testing.T) {
	a := kdb.NewAtom("student", kdb.Var("X"), kdb.Sym("math"), kdb.Num(3.9))
	if a.String() != "student(X, math, 3.9)" {
		t.Errorf("atom = %q", a)
	}
	s := kdb.Str("hello")
	if s.String() != `"hello"` {
		t.Errorf("str = %q", s)
	}
	f, err := kdb.ParseFormula(`student(X, M, G) and G > 3.7`)
	if err != nil || len(f) != 2 {
		t.Errorf("formula = %v, %v", f, err)
	}
	at, err := kdb.ParseAtom(`honor(X)`)
	if err != nil || at.Pred != "honor" {
		t.Errorf("atom = %v, %v", at, err)
	}
	qs, err := kdb.ParseQueries(`retrieve honor(X). describe honor(X).`)
	if err != nil || len(qs) != 2 {
		t.Errorf("queries = %v, %v", qs, err)
	}
	p, err := kdb.ParseProgram(`p(a).`)
	if err != nil || len(p.Clauses) != 1 {
		t.Errorf("program = %v, %v", p, err)
	}
}

func TestUniversityEndToEnd(t *testing.T) {
	k := loadUniversity(t)
	cases := []struct {
		query, want string
	}{
		{`retrieve honor(X) where enroll(X, databases).`, "honor(ann)\nhonor(dan)"},
		{`describe honor(X).`, "honor(X) <- student(X, Y, Z) and Z > 3.7"},
		{`describe can_ta(X, databases) where student(X, math, V) and V > 3.7.`,
			"can_ta(X, databases) <- complete(X, databases, Z, U) and U > 3.3 and taught(V1, databases, Z, W) and teach(V1, databases)\n" +
				"can_ta(X, databases) <- complete(X, databases, Z, 4)"},
		{`describe prior(X, Y) where prior(databases, Y).`,
			"prior(X, Y) <- X = databases\nprior(X, Y) <- prior(X, databases)"},
	}
	for _, c := range cases {
		got := exec(t, k, c.query)
		// Compare as line sets (describe answer order is derivation order).
		if !sameLines(got, c.want) {
			t.Errorf("%s\n got: %q\nwant: %q", c.query, got, c.want)
		}
	}
}

func sameLines(a, b string) bool {
	la := strings.Split(a, "\n")
	lb := strings.Split(b, "\n")
	if len(la) != len(lb) {
		return false
	}
	seen := make(map[string]int)
	for _, l := range la {
		seen[l]++
	}
	for _, l := range lb {
		seen[l]--
		if seen[l] < 0 {
			return false
		}
	}
	return true
}

func TestRoutesIntroQueries(t *testing.T) {
	k := loadRoutes(t)
	// "List all points reachable from la."
	got := exec(t, k, `retrieve reachable(la, Y).`)
	for _, city := range []string{"sf", "sea", "chi", "ny", "dal", "la"} {
		if !strings.Contains(got, "reachable(la, "+city+")") {
			t.Errorf("la should reach %s: %q", city, got)
		}
	}
	// "Do you know how to get from any point to any other point?" —
	// a definition of reachability is available:
	got = exec(t, k, `describe reachable(X, Y).`)
	if !strings.Contains(got, "flight") {
		t.Errorf("describe reachable = %q", got)
	}
	// Knowledge query on the recursive concept.
	got = exec(t, k, `describe reachable(X, Y) where reachable(la, Y).`)
	if !sameLines(got, "reachable(X, Y) <- X = la\nreachable(X, Y) <- reachable(X, la)") {
		t.Errorf("= %q", got)
	}
	// "Must every roundtrip endpoint be reachable both ways?" via not:
	res, err := k.ExecStringContext(context.Background(), `describe roundtrip(X, Y) where not reachable(X, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Necessity == nil || res.Necessity.Possible {
		t.Errorf("reachability is necessary for a roundtrip: %v", res)
	}
}

func TestDurablePublicAPI(t *testing.T) {
	dir := t.TempDir()
	k, err := kdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.LoadString(`flight(la, sf).`); err != nil {
		t.Fatal(err)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	k2, err := kdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer k2.Close()
	if k2.FactCount() != 1 {
		t.Errorf("recovered %d facts", k2.FactCount())
	}
}

// TestEngineSelectionPublicAPI: the query picks the engine. A goal that
// binds an argument of a rule-defined predicate runs top-down; the same
// goal bound by an equality, and a free goal, run semi-naive; the bound
// forms answer alike.
func TestEngineSelectionPublicAPI(t *testing.T) {
	k := loadRoutes(t)
	bound := execOn(t, k, `retrieve roundtrip(la, Y).`, "topdown")
	free := execOn(t, k, `retrieve roundtrip(X, Y) where X = la.`, "seminaive")
	if bound != free || bound == "" {
		t.Errorf("engines disagree: %q vs %q", bound, free)
	}
	execOn(t, k, `retrieve roundtrip(X, Y).`, "seminaive")
}

func TestParallelismPublicAPI(t *testing.T) {
	k := kdb.New(kdb.WithParallelism(4))
	if err := k.LoadFile("testdata/routes.kdb"); err != nil {
		t.Fatal(err)
	}
	if got := k.Parallelism(); got != 4 {
		t.Errorf("Parallelism() = %d, want 4", got)
	}
	seq := loadRoutes(t)
	// A free goal: the kb runs it bottom-up, where the workers apply (a
	// bound goal would run top-down, which has no worker pool).
	q := `retrieve reachable(X, Y).`
	if a, b := exec(t, seq, q), exec(t, k, q); a != b {
		t.Errorf("parallel answer %q != sequential %q", b, a)
	}
	st := k.LastStats()
	if st == nil {
		t.Fatal("LastStats() = nil after a retrieve")
	}
	if st.Workers != 4 {
		t.Errorf("stats workers = %d, want 4", st.Workers)
	}
	if !strings.Contains(st.String(), "workers=4") {
		t.Errorf("stats rendering: %q", st.String())
	}
	// Durable KBs accept the same option.
	dk, err := kdb.Open(t.TempDir(), kdb.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	defer dk.Close()
	if dk.Parallelism() != 2 {
		t.Errorf("durable Parallelism() = %d, want 2", dk.Parallelism())
	}
}

func TestDescribeOptionsPublicAPI(t *testing.T) {
	k := loadRoutes(t)
	k.SetDescribeOptions(kdb.DescribeOptions{KeepSteps: true})
	got := exec(t, k, `describe reachable(X, Y) where reachable(la, Y).`)
	if !strings.Contains(got, "leg(la, X)") {
		t.Errorf("@name display expected: %q", got)
	}
}
