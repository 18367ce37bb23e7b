package prov

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"kdb/internal/term"
)

func atom(pred string, args ...string) term.Atom {
	ts := make([]term.Term, len(args))
	for i, a := range args {
		ts[i] = term.Sym(a)
	}
	return term.NewAtom(pred, ts...)
}

// edge/path fixture: path(X,Y) :- edge(X,Y). path(X,Y) :- edge(X,Z), path(Z,Y).
var (
	x, y, z  = term.Var("X"), term.Var("Y"), term.Var("Z")
	baseRule = term.NewRule(term.NewAtom("path", x, y), term.NewAtom("edge", x, y))
	stepRule = term.NewRule(term.NewAtom("path", x, y),
		term.NewAtom("edge", x, z), term.NewAtom("path", z, y))
)

func recordPath(t *testing.T, r *Recorder) {
	t.Helper()
	// path(b,c) :- edge(b,c).   path(a,c) :- edge(a,b), path(b,c).
	r.Record(atom("path", "b", "c"), baseRule, baseRule.Body,
		term.Subst{x: term.Sym("b"), y: term.Sym("c")})
	r.Record(atom("path", "a", "c"), stepRule, stepRule.Body,
		term.Subst{x: term.Sym("a"), y: term.Sym("c"), z: term.Sym("b")})
}

func TestRecordFirstWitnessWins(t *testing.T) {
	r := NewRecorder()
	recordPath(t, r)
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	// A second derivation of path(b,c) must not replace the first.
	n := r.Record(atom("path", "b", "c"), stepRule, stepRule.Body,
		term.Subst{x: term.Sym("b"), y: term.Sym("c"), z: term.Sym("q")})
	if n != 2 || r.Len() != 2 {
		t.Fatalf("duplicate record changed the store: n=%d len=%d", n, r.Len())
	}
	w := r.witness(atom("path", "b", "c").Key())
	if w == nil || len(w.Body) != 1 || w.Body[0].Pred != "edge" {
		t.Fatalf("first witness replaced: %+v", w)
	}
}

func TestNilRecorder(t *testing.T) {
	var r *Recorder
	if n := r.Record(atom("p", "a"), baseRule, baseRule.Body, nil); n != 0 {
		t.Errorf("nil Record = %d, want 0", n)
	}
	if r.Len() != 0 {
		t.Errorf("nil Len = %d, want 0", r.Len())
	}
}

func TestExplainTree(t *testing.T) {
	r := NewRecorder()
	recordPath(t, r)
	isEDB := func(a term.Atom) bool { return a.Pred == "edge" }
	e := r.Explain(term.NewAtom("path", term.Sym("a"), y),
		[]term.Atom{atom("path", "a", "c")}, isEDB, 0)
	want := `path(a, c)  [r1]
  edge(a, b)  [edb]
  path(b, c)  [r2]
    edge(b, c)  [edb]

rules:
  r1: path(X, Y) :- edge(X, Z), path(Z, Y).
  r2: path(X, Y) :- edge(X, Y).
`
	if got := e.String(); got != want {
		t.Errorf("text rendering:\n got:\n%s\nwant:\n%s", got, want)
	}
	if e.Nodes != 4 || e.Entries != 2 || e.Truncated {
		t.Errorf("Nodes=%d Entries=%d Truncated=%v", e.Nodes, e.Entries, e.Truncated)
	}
}

func TestExplainCycleSafe(t *testing.T) {
	r := NewRecorder()
	// A self-supporting witness: p(a) witnessed by p(a) itself. The
	// reconstruction must cut the cycle rather than recurse forever.
	self := term.NewRule(term.NewAtom("p", x), term.NewAtom("p", x))
	r.Record(atom("p", "a"), self, self.Body, term.Subst{x: term.Sym("a")})
	e := r.Explain(atom("p", "a"), []term.Atom{atom("p", "a")}, nil, 0)
	tree := e.Trees[0]
	if tree.Kind != NodeDerived || len(tree.Children) != 1 {
		t.Fatalf("root: %+v", tree)
	}
	if tree.Children[0].Kind != NodeCycle {
		t.Fatalf("child kind = %v, want cycle", tree.Children[0].Kind)
	}
}

func TestExplainLeafKinds(t *testing.T) {
	r := NewRecorder()
	gt := term.NewAtom(">", term.Var("G"), term.Num(3.7))
	rule := term.NewRule(term.NewAtom("honor", x),
		term.NewAtom("student", x, term.Var("G")), gt)
	r.Record(atom("honor", "ann"), rule, rule.Body,
		term.Subst{x: term.Sym("ann"), term.Var("G"): term.Num(3.9)})
	isEDB := func(a term.Atom) bool { return a.Pred == "student" }
	e := r.Explain(atom("honor", "ann"), []term.Atom{atom("honor", "ann"), atom("honor", "zoe")}, isEDB, 0)
	root := e.Trees[0]
	if root.Children[0].Kind != NodeEDB {
		t.Errorf("student leaf kind = %v, want edb", root.Children[0].Kind)
	}
	if root.Children[1].Kind != NodeBuiltin {
		t.Errorf("comparison leaf kind = %v, want builtin", root.Children[1].Kind)
	}
	if e.Trees[1].Kind != NodeUnknown {
		t.Errorf("witness-less fact kind = %v, want unknown", e.Trees[1].Kind)
	}
}

func TestExplainNodeBudget(t *testing.T) {
	r := NewRecorder()
	recordPath(t, r)
	e := r.Explain(atom("path", "a", "c"), []term.Atom{atom("path", "a", "c")},
		func(a term.Atom) bool { return a.Pred == "edge" }, 2)
	if !e.Truncated {
		t.Fatal("budget of 2 did not truncate a 4-node tree")
	}
	if !strings.Contains(e.String(), "truncated") {
		t.Error("text rendering does not mention truncation")
	}
}

func TestExplainEmpty(t *testing.T) {
	r := NewRecorder()
	e := r.Explain(atom("p", "a"), nil, nil, 0)
	if !strings.Contains(e.String(), "no derivation") {
		t.Errorf("empty explanation rendering = %q", e.String())
	}
}

func TestExplainJSON(t *testing.T) {
	r := NewRecorder()
	recordPath(t, r)
	e := r.Explain(atom("path", "a", "c"), []term.Atom{atom("path", "a", "c")},
		func(a term.Atom) bool { return a.Pred == "edge" }, 0)
	var buf bytes.Buffer
	if err := e.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var wire struct {
		Subject string `json:"subject"`
		Trees   []struct {
			Fact string `json:"fact"`
			Kind string `json:"kind"`
			Rule int    `json:"rule"`
		} `json:"trees"`
		Rules []string `json:"rules"`
		Nodes int      `json:"nodes"`
	}
	if err := json.Unmarshal(buf.Bytes(), &wire); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(wire.Trees) != 1 || wire.Trees[0].Fact != "path(a, c)" || wire.Trees[0].Rule != 1 {
		t.Errorf("trees: %+v", wire.Trees)
	}
	if len(wire.Rules) != 2 || wire.Nodes != 4 {
		t.Errorf("rules=%v nodes=%d", wire.Rules, wire.Nodes)
	}
}

func TestExplainChromeTrace(t *testing.T) {
	r := NewRecorder()
	recordPath(t, r)
	e := r.Explain(atom("path", "a", "c"), []term.Atom{atom("path", "a", "c")},
		func(a term.Atom) bool { return a.Pred == "edge" }, 0)
	var buf bytes.Buffer
	if err := e.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v", err)
	}
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4 (one per node)", len(events))
	}
	// The root spans the whole two-leaf interval.
	names := map[string]bool{}
	for _, ev := range events {
		names[ev["name"].(string)] = true
	}
	for _, want := range []string{"path(a, c)", "edge(a, b)", "path(b, c)", "edge(b, c)"} {
		if !names[want] {
			t.Errorf("missing event %q", want)
		}
	}
}
