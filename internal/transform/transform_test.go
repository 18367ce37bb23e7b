package transform

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"kdb/internal/eval"
	"kdb/internal/parser"
	"kdb/internal/storage"
	"kdb/internal/term"
)

func rules(t testing.TB, src string) []term.Rule {
	t.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p.Clauses
}

const priorIDB = `
prior(X, Y) :- prereq(X, Y).
prior(X, Y) :- prereq(X, Z), prior(Z, Y).
`

func TestTransformPriorStructure(t *testing.T) {
	res, err := Apply(rules(t, priorIDB))
	if err != nil {
		t.Fatal(err)
	}
	tr := res.ByPred["prior"]
	if tr == nil {
		t.Fatal("prior must be transformed")
	}
	if tr.StepPred != "prior_step" {
		t.Errorf("StepPred = %q", tr.StepPred)
	}
	if !reflect.DeepEqual(tr.Alpha, []int{0}) {
		t.Errorf("Alpha = %v, want [0]", tr.Alpha)
	}
	// Paper §5.2: prior(X,Y) ← prior(Z,Y) ∧ t(Z,X) — up to renaming.
	if got, want := tr.RT.String(), "prior(Z1, X2) :- prior(X1, X2), prior_step(X1, Z1)."; got != want {
		t.Errorf("rT = %q, want %q", got, want)
	}
	// Paper §5.2: t(Z,X) ← prereq(X,Z).
	if len(tr.RIs) != 1 {
		t.Fatalf("RIs = %v", tr.RIs)
	}
	if got, want := tr.RIs[0].String(), "prior_step(Z, X) :- prereq(X, Z)."; got != want {
		t.Errorf("rI = %q, want %q", got, want)
	}
	// Paper §5.2: t(X,Y) ← t(X,Z) ∧ t(Z,Y).
	if got, want := tr.RC.String(), "prior_step(X1, Z1) :- prior_step(X1, Y1), prior_step(Y1, Z1)."; got != want {
		t.Errorf("rC = %q, want %q", got, want)
	}
	// Rule kinds are classified.
	if res.Kind(tr.RT) != KindRT || res.Kind(tr.RIs[0]) != KindRI || res.Kind(tr.RC) != KindRC {
		t.Error("rule kinds misclassified")
	}
	base := rules(t, `prior(X, Y) :- prereq(X, Y).`)[0]
	if res.Kind(base) != KindOrdinary {
		t.Error("base rule must be ordinary")
	}
	// The original recursive rule is gone; the base rule is kept.
	for _, r := range res.Rules {
		if r.Head.Pred == "prior" && len(r.Body) == 2 && r.Body[0].Pred == "prereq" {
			t.Errorf("original recursive rule survived: %v", r)
		}
	}
	// Step predicate lookup.
	if tr2, ok := res.IsStepPred("prior_step"); !ok || tr2 != tr {
		t.Error("IsStepPred must find prior_step")
	}
	if _, ok := res.IsStepPred("prior"); ok {
		t.Error("prior is not a step predicate")
	}
}

func TestModifiedTransformationMapping(t *testing.T) {
	res, err := Apply(rules(t, priorIDB))
	if err != nil {
		t.Fatal(err)
	}
	tr := res.ByPred["prior"]
	// t(a, b) ≡ prior(b, a): mapping [1, 0].
	if !reflect.DeepEqual(tr.StepToPred, []int{1, 0}) {
		t.Fatalf("StepToPred = %v, want [1 0]", tr.StepToPred)
	}
	// RewriteStepAtom yields the paper's preferred rendering for Ex. 6:
	// t(databases, X) → prior(X, databases).
	got, ok := res.RewriteStepAtom(term.NewAtom("prior_step", term.Sym("databases"), term.Var("X")))
	if !ok {
		t.Fatal("rewrite must apply")
	}
	want := term.NewAtom("prior", term.Var("X"), term.Sym("databases"))
	if !got.Equal(want) {
		t.Errorf("rewrite = %v, want %v", got, want)
	}
	// Non-step atoms pass through.
	a := term.NewAtom("prereq", term.Var("X"), term.Var("Y"))
	if _, ok := res.RewriteStepAtom(a); ok {
		t.Error("non-step atom must not rewrite")
	}
}

func TestModifiedTransformationNotApplicable(t *testing.T) {
	// A same-generation-style predicate: base is not isomorphic to the
	// step relation (arity mismatch: 2m = 2 but the base body differs).
	res, err := Apply(rules(t, `
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
`))
	if err != nil {
		t.Fatal(err)
	}
	tr := res.ByPred["sg"]
	if tr == nil {
		t.Fatal("sg must be transformed")
	}
	if len(tr.Alpha) != 2 {
		t.Errorf("Alpha = %v, want both positions", tr.Alpha)
	}
	if tr.StepToPred != nil {
		t.Errorf("modified transformation must not apply to sg, got %v", tr.StepToPred)
	}
}

func TestUntypedRulesExempted(t *testing.T) {
	res, err := Apply(rules(t, `
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
sym(X, Y) :- sym(Y, X).
sym(X, Y) :- base(X, Y).
`))
	if err != nil {
		t.Fatal(err)
	}
	if res.ByPred["reach"] == nil {
		t.Error("reach must be transformed")
	}
	if res.ByPred["sym"] != nil {
		t.Error("sym must not be transformed (untyped)")
	}
	if len(res.Untyped) != 1 || res.Untyped[0].Head.Pred != "sym" {
		t.Errorf("Untyped = %v", res.Untyped)
	}
	if !res.IsUntypedRule(res.Untyped[0]) {
		t.Error("IsUntypedRule must recognize the exempted rule")
	}
	// The untyped rule must survive verbatim in the output.
	found := false
	for _, r := range res.Rules {
		if r.Head.Pred == "sym" && len(r.Body) == 1 && r.Body[0].Pred == "sym" {
			found = true
		}
	}
	if !found {
		t.Error("untyped rule must be kept in the rule set")
	}
}

func TestMixedDisciplinePredicateFullyExempted(t *testing.T) {
	// One disciplined + one undisciplined recursive rule for the same
	// predicate: the whole predicate must be exempted.
	res, err := Apply(rules(t, `
r(X, Y) :- e(X, Y).
r(X, Y) :- e(X, Z), r(Z, Y).
r(X, Y) :- r(Y, X).
`))
	if err != nil {
		t.Fatal(err)
	}
	if res.ByPred["r"] != nil {
		t.Error("r must be fully exempted")
	}
	if len(res.Untyped) != 2 {
		t.Errorf("Untyped = %v, want both recursive rules", res.Untyped)
	}
}

func TestNonRecursiveProgramPassThrough(t *testing.T) {
	src := `
honor(X) :- student(X, Y, Z), Z > 3.7.
can_ta(X, Y) :- honor(X), complete(X, Y, Z, 4).
`
	rs := rules(t, src)
	res, err := Apply(rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rules) != len(rs) || len(res.ByPred) != 0 {
		t.Errorf("non-recursive program must pass through: %v", res.Rules)
	}
}

func TestMutualRecursionTransformed(t *testing.T) {
	res, err := Apply(rules(t, `
even(X) :- zero(X).
even(X) :- succ(Y, X), odd(Y).
odd(X) :- succ(Y, X), even(Y).
`))
	if err != nil {
		t.Fatal(err)
	}
	// After strong-linearization, even (and possibly odd) become directly
	// recursive and transformable.
	if res.ByPred["even"] == nil && res.ByPred["odd"] == nil {
		t.Errorf("expected at least one of even/odd transformed; rules=%v untyped=%v", res.Rules, res.Untyped)
	}
}

// --- equivalence property tests (the §5.2 preservation theorem) ---

func extensionOf(t testing.TB, st *storage.Store, rs []term.Rule, q string) []string {
	t.Helper()
	pq, err := parser.ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	r := pq.(*parser.Retrieve)
	res, err := eval.NewSemiNaive(eval.Input{Store: st, Rules: rs}).RetrieveContext(context.Background(), eval.Query{Subject: r.Subject, Where: r.Where})
	if err != nil {
		t.Fatalf("retrieve: %v", err)
	}
	return res.Strings()
}

func randomEdges(r *rand.Rand, pred string, nodes, edges int) *storage.Store {
	st := storage.NewMemory()
	for i := 0; i < edges; i++ {
		a := term.Sym(fmt.Sprintf("c%d", r.Intn(nodes)))
		b := term.Sym(fmt.Sprintf("c%d", r.Intn(nodes)))
		if _, err := st.InsertAtom(term.NewAtom(pred, a, b)); err != nil {
			panic(err)
		}
	}
	return st
}

// TestQuickTransformPreservesPrior: the transformed program computes the
// same extension of prior as the original, over random prereq EDBs.
func TestQuickTransformPreservesPrior(t *testing.T) {
	orig := rules(t, priorIDB)
	res, err := Apply(orig)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st := randomEdges(r, "prereq", 6, 9)
		a := extensionOf(t, st, orig, `retrieve prior(X, Y).`)
		b := extensionOf(t, st, res.Rules, `retrieve prior(X, Y).`)
		if !reflect.DeepEqual(a, b) {
			t.Logf("seed %d: original %v != transformed %v", seed, a, b)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickTransformPreservesSameGeneration: a two-shared-position
// recursion (α = both positions) is also preserved.
func TestQuickTransformPreservesSameGeneration(t *testing.T) {
	orig := rules(t, `
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
`)
	res, err := Apply(orig)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st := storage.NewMemory()
		for _, pred := range []string{"flat", "up", "down"} {
			for i := 0; i < 6; i++ {
				a := term.Sym(fmt.Sprintf("c%d", r.Intn(5)))
				b := term.Sym(fmt.Sprintf("c%d", r.Intn(5)))
				if _, err := st.InsertAtom(term.NewAtom(pred, a, b)); err != nil {
					panic(err)
				}
			}
		}
		a := extensionOf(t, st, orig, `retrieve sg(X, Y).`)
		b := extensionOf(t, st, res.Rules, `retrieve sg(X, Y).`)
		if !reflect.DeepEqual(a, b) {
			t.Logf("seed %d: original %v != transformed %v", seed, a, b)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickTransformPreservesMutualRecursion: strong-linearization plus
// transformation preserves even/odd.
func TestQuickTransformPreservesMutualRecursion(t *testing.T) {
	orig := rules(t, `
even(X) :- zero(X).
even(X) :- succ(Y, X), odd(Y).
odd(X) :- succ(Y, X), even(Y).
`)
	res, err := Apply(orig)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st := storage.NewMemory()
		n := 3 + r.Intn(8)
		if _, err := st.InsertAtom(term.NewAtom("zero", term.Sym("n0"))); err != nil {
			panic(err)
		}
		for i := 0; i < n; i++ {
			if _, err := st.InsertAtom(term.NewAtom("succ",
				term.Sym(fmt.Sprintf("n%d", i)), term.Sym(fmt.Sprintf("n%d", i+1)))); err != nil {
				panic(err)
			}
		}
		a := extensionOf(t, st, orig, `retrieve even(X).`)
		b := extensionOf(t, st, res.Rules, `retrieve even(X).`)
		if !reflect.DeepEqual(a, b) {
			t.Logf("seed %d: original %v != transformed %v", seed, a, b)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[RuleKind]string{KindOrdinary: "ordinary", KindRT: "rT", KindRI: "rI", KindRC: "rC"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func BenchmarkTransformApply(b *testing.B) {
	rs := rules(b, priorIDB+`
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
honor(X) :- student(X, Y, Z), Z > 3.7.
`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Apply(rs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransformedEvaluationOverhead(b *testing.B) {
	// DESIGN B4: evaluating prior through the transformed rules vs the
	// original recursion.
	orig := rules(b, priorIDB)
	res, err := Apply(orig)
	if err != nil {
		b.Fatal(err)
	}
	st := storage.NewMemory()
	for i := 0; i < 50; i++ {
		if _, err := st.InsertAtom(term.NewAtom("prereq",
			term.Sym(fmt.Sprintf("c%02d", i)), term.Sym(fmt.Sprintf("c%02d", i+1)))); err != nil {
			b.Fatal(err)
		}
	}
	pq, _ := parser.ParseQuery(`retrieve prior(X, Y).`)
	q := eval.Query{Subject: pq.(*parser.Retrieve).Subject}
	b.Run("original", func(b *testing.B) {
		e := eval.NewSemiNaive(eval.Input{Store: st, Rules: orig})
		for i := 0; i < b.N; i++ {
			if _, err := e.RetrieveContext(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("transformed", func(b *testing.B) {
		e := eval.NewSemiNaive(eval.Input{Store: st, Rules: res.Rules})
		for i := 0; i < b.N; i++ {
			if _, err := e.RetrieveContext(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
	})
}
