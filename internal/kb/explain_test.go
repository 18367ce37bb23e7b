package kb

import (
	"context"
	"errors"
	"strings"
	"testing"

	"kdb/internal/governor"
	"kdb/internal/parser"
	"kdb/internal/prov"
	"kdb/internal/term"
)

const universityProgram = `
student(ann, math, 3.9).
student(bob, cs, 3.5).
student(cora, math, 3.8).
student(dan, cs, 4).

enroll(ann, databases).
enroll(bob, databases).

teach(susan, databases).
taught(susan, databases, f89, 3.5).

complete(ann, databases, f89, 3.6).
complete(cora, databases, f88, 4).

prereq(databases, datastructures).
prereq(datastructures, programming).
prereq(ai, datastructures).

honor(X) :- student(X, Y, Z), Z > 3.7.

prior(X, Y) :- prereq(X, Y).
prior(X, Y) :- prereq(X, Z), prior(Z, Y).

can_ta(X, Y) :- honor(X), complete(X, Y, Z, U), U > 3.3, taught(V, Y, Z, W), teach(V, Y).
can_ta(X, Y) :- honor(X), complete(X, Y, Z, 4).
`

const routesProgram = `
flight(la, sf). flight(sf, sea). flight(sea, chi). flight(chi, ny).
flight(ny, la). flight(dal, chi). flight(la, dal).
reachable(X, Y) :- flight(X, Y).
reachable(X, Y) :- flight(X, Z), reachable(Z, Y).
`

func loadParallelKB(t *testing.T, src string, parallel int) *KB {
	t.Helper()
	k := New(WithParallelism(parallel))
	if err := k.LoadString(src); err != nil {
		t.Fatal(err)
	}
	return k
}

// checkRanOn fails the test unless the kb's last evaluation ran on the
// named strategy.
func checkRanOn(t *testing.T, k *KB, engine string) {
	t.Helper()
	if st := k.LastStats(); st == nil || !strings.HasPrefix(st.Engine, engine) {
		t.Errorf("ran on %+v, want %s", st, engine)
	}
}

// TestExplainParityAcrossEngines pins the exact rendered derivation
// trees of facts with a unique derivation — including the recursive
// prior — and requires both strategies the kb picks from to produce
// the identical explanation. Each case states a ground goal, which runs
// top-down, and the same goal with its constants bound by equalities,
// which runs semi-naive (sequential and parallel).
func TestExplainParityAcrossEngines(t *testing.T) {
	cases := []struct {
		stmt, free string
		want       string
	}{
		{
			stmt: "explain honor(ann).",
			free: "explain honor(X) where X = ann.",
			want: `honor(ann)  [r1]
  student(ann, math, 3.9)  [edb]
  3.9 > 3.7  [builtin]

rules:
  r1: honor(X) :- student(X, Y, Z), Z > 3.7.
`,
		},
		{
			stmt: "explain can_ta(ann, databases).",
			free: "explain can_ta(X, Y) where X = ann and Y = databases.",
			want: `can_ta(ann, databases)  [r1]
  honor(ann)  [r2]
    student(ann, math, 3.9)  [edb]
    3.9 > 3.7  [builtin]
  complete(ann, databases, f89, 3.6)  [edb]
  3.6 > 3.3  [builtin]
  taught(susan, databases, f89, 3.5)  [edb]
  teach(susan, databases)  [edb]

rules:
  r1: can_ta(X, Y) :- honor(X), complete(X, Y, Z, U), U > 3.3, taught(V, Y, Z, W), teach(V, Y).
  r2: honor(X) :- student(X, Y, Z), Z > 3.7.
`,
		},
		{
			stmt: "explain prior(databases, programming).",
			free: "explain prior(X, Y) where X = databases and Y = programming.",
			want: `prior(databases, programming)  [r1]
  prereq(databases, datastructures)  [edb]
  prior(datastructures, programming)  [r2]
    prereq(datastructures, programming)  [edb]

rules:
  r1: prior(X, Y) :- prereq(X, Z), prior(Z, Y).
  r2: prior(X, Y) :- prereq(X, Y).
`,
		},
	}
	for _, parallel := range []int{1, 4} {
		for _, tc := range cases {
			for stmt, engine := range map[string]string{tc.stmt: "topdown", tc.free: "seminaive"} {
				k := loadParallelKB(t, universityProgram, parallel)
				res, err := k.ExecStringContext(context.Background(), stmt)
				if err != nil {
					t.Fatalf("p%d %s: %v", parallel, stmt, err)
				}
				checkRanOn(t, k, engine)
				got := res.Explanation.String()
				if got != tc.want {
					t.Errorf("%s/p%d %s:\n got:\n%s\nwant:\n%s",
						engine, parallel, stmt, got, tc.want)
				}
			}
		}
	}
}

// TestExplainRecursiveSound verifies structural soundness on a program
// where the first witness is engine-dependent (multiple routes between
// the same airports): every engine must still justify every answer with
// a well-formed tree — derived nodes carry a rule and children, leaves
// are stored facts or comparisons, and nothing is unknown or truncated.
// The bound goal runs top-down; its equality-bound twin runs semi-naive.
// With -race and parallel workers this doubles as the recorder's
// concurrency test.
func TestExplainRecursiveSound(t *testing.T) {
	x, y := term.Var("X"), term.Var("Y")
	for _, engine := range []string{"topdown", "seminaive"} {
		subject := term.NewAtom("reachable", term.Sym("la"), y)
		var where term.Formula
		if engine == "seminaive" {
			subject = term.NewAtom("reachable", x, y)
			where = term.Formula{term.NewAtom(term.PredEq, x, term.Sym("la"))}
		}
		for _, parallel := range []int{1, 4} {
			k := loadParallelKB(t, routesProgram, parallel)
			res, err := k.ExecContext(context.Background(), &parser.Explain{Subject: subject, Where: where})
			if err != nil {
				t.Fatalf("%s/p%d: %v", engine, parallel, err)
			}
			exp := res.Explanation
			checkRanOn(t, k, engine)
			// Every airport is reachable from la (the graph is one cycle
			// plus the dal chord).
			if len(exp.Trees) != 6 {
				t.Fatalf("%s/p%d: %d answers, want 6", engine, parallel, len(exp.Trees))
			}
			for _, tree := range exp.Trees {
				checkSound(t, k, tree, engine)
			}
		}
	}
}

func checkSound(t *testing.T, k *KB, n *prov.Node, engine string) {
	t.Helper()
	switch n.Kind {
	case prov.NodeDerived:
		if n.Rule < 1 {
			t.Errorf("%s: derived node %v without a rule id", engine, n.Fact)
		}
		if len(n.Children) == 0 {
			t.Errorf("%s: derived node %v has no children", engine, n.Fact)
		}
		for _, c := range n.Children {
			checkSound(t, k, c, engine)
		}
	case prov.NodeEDB:
		if !k.Store().Contains(n.Fact) {
			t.Errorf("%s: edb leaf %v is not stored", engine, n.Fact)
		}
	case prov.NodeBuiltin, prov.NodeCycle:
		// Comparisons hold by construction; cycles are legal cuts.
	default:
		t.Errorf("%s: node %v has kind %v", engine, n.Fact, n.Kind)
	}
}

// TestExplainProvenanceLimit exercises the governor's
// MaxProvenanceEntries bound: a recursive explain over the routes
// program records more witnesses than the limit allows and must stop
// with a structured LimitError, on both strategies.
func TestExplainProvenanceLimit(t *testing.T) {
	for stmt, engine := range map[string]string{
		"explain reachable(la, ny).":                       "topdown",
		"explain reachable(X, Y) where X = la and Y = ny.": "seminaive",
	} {
		k := loadParallelKB(t, routesProgram, 1)
		k.SetQueryLimits(governor.Limits{MaxProvenanceEntries: 3})
		_, err := k.ExecStringContext(context.Background(), stmt)
		checkRanOn(t, k, engine)
		if err == nil {
			t.Fatalf("%s: no error with MaxProvenanceEntries=3", engine)
		}
		var le *governor.LimitError
		if !errors.As(err, &le) {
			t.Fatalf("%s: error %v is not a LimitError", engine, err)
		}
		if le.Kind != governor.LimitProvenance || le.Limit != 3 {
			t.Errorf("%s: LimitError = %+v, want kind=provenance limit=3", engine, le)
		}
	}
}

// TestExplainStatement checks the parser surface: rendering, the where
// qualifier, and rejection of forms explain does not support.
func TestExplainStatement(t *testing.T) {
	q, err := parser.ParseQuery("explain reachable(la, X) where flight(X, ny).")
	if err != nil {
		t.Fatal(err)
	}
	e, ok := q.(*parser.Explain)
	if !ok {
		t.Fatalf("parsed %T, want *parser.Explain", q)
	}
	if got := e.String(); got != "explain reachable(la, X) where flight(X, ny)." {
		t.Errorf("String() = %q", got)
	}
	for _, bad := range []string{
		"explain reachable(la, X) where not flight(X, ny).",
		"explain reachable(la, X) where flight(X, ny) or flight(ny, X).",
		"explain X > 3.",
	} {
		if _, err := parser.ParseQuery(bad); err == nil {
			t.Errorf("ParseQuery(%q) succeeded, want error", bad)
		}
	}
	// The where qualifier restricts which answers get explained.
	k := loadParallelKB(t, routesProgram, 1)
	res, err := k.ExecStringContext(context.Background(), "explain reachable(la, X) where flight(X, la).")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explanation.Trees) != 1 || res.Explanation.Trees[0].Fact.String() != "reachable(la, ny)" {
		t.Errorf("qualified explain trees: %v", res.Explanation.Trees)
	}
}

// TestExplainEmptyAnswer pins the no-derivation rendering.
func TestExplainEmptyAnswer(t *testing.T) {
	k := loadParallelKB(t, routesProgram, 1)
	res, err := k.ExecStringContext(context.Background(), "explain reachable(la, mars).")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.String(); !strings.Contains(got, "no derivation") {
		t.Errorf("empty explain rendering = %q", got)
	}
}

// TestExplainStoredPromotedFact: a predicate with both stored facts and
// rules (an EDB predicate promoted by a later rule) must show its stored
// tuples as edb leaves, not derived or unknown.
func TestExplainStoredPromotedFact(t *testing.T) {
	k := loadParallelKB(t, `vip(ann).`, 1)
	if err := k.LoadString(`
vip(X) :- sponsor(X, Y), vip(Y).
sponsor(bob, ann).
`); err != nil {
		t.Fatal(err)
	}
	res, err := k.ExecStringContext(context.Background(), "explain vip(bob).")
	if err != nil {
		t.Fatal(err)
	}
	tree := res.Explanation.Trees[0]
	if len(tree.Children) != 2 {
		t.Fatalf("tree: %s", res.Explanation)
	}
	leaf := tree.Children[1]
	if leaf.Fact.String() != "vip(ann)" || leaf.Kind != prov.NodeEDB {
		t.Errorf("promoted fact leaf = %v [%v], want vip(ann) [edb]", leaf.Fact, leaf.Kind)
	}
}
