package kdb_test

// End-to-end tests over the genealogy knowledge base — a third domain
// combining typed recursion (ancestor), untyped symmetric recursion
// (married), keys, and an integrity constraint in one program.

import (
	"context"
	"strings"
	"testing"

	"kdb"
)

func loadGenealogy(t testing.TB) *kdb.KB {
	t.Helper()
	k := kdb.New()
	if err := k.LoadFile("testdata/genealogy.kdb"); err != nil {
		t.Fatalf("load: %v", err)
	}
	return k
}

func TestGenealogyRetrieve(t *testing.T) {
	k := loadGenealogy(t)
	got := exec(t, k, `retrieve ancestor(adam, Y).`)
	for _, d := range []string{"beth", "carl", "dora", "evan", "fred", "gina"} {
		if !strings.Contains(got, "ancestor(adam, "+d+")") {
			t.Errorf("adam should be an ancestor of %s: %q", d, got)
		}
	}
	// Symmetric closure of marriage reaches both directions.
	got = exec(t, k, `retrieve married(ada, Y).`)
	if !strings.Contains(got, "married(ada, adam)") {
		t.Errorf("marriage must be symmetric: %q", got)
	}
	got = exec(t, k, `retrieve cousin(dora, fred).`)
	if got == "no answers" {
		t.Error("dora and fred are cousins")
	}
	// The data satisfies the acyclicity constraint.
	violations, err := k.CheckConstraintsContext(context.Background())
	if err != nil || len(violations) != 0 {
		t.Fatalf("constraints: %v %v", violations, err)
	}
}

func TestGenealogyDescribe(t *testing.T) {
	k := loadGenealogy(t)
	// A recursive describe over ancestor, in the paper's Example 6 shape.
	got := exec(t, k, `describe ancestor(X, Y) where ancestor(beth, Y).`)
	if !sameLines(got, "ancestor(X, Y) <- X = beth\nancestor(X, Y) <- ancestor(X, beth)") {
		t.Errorf("= %q", got)
	}
	// The untyped symmetry rule answers the "is it guaranteed?" question.
	got = exec(t, k, `describe married(X, Y) where married(Y, X).`)
	if !strings.Contains(got, "married(X, Y) <- true") {
		t.Errorf("marriage symmetry should derive the subject: %q", got)
	}
	// Non-recursive concepts with a hypothesis.
	got = exec(t, k, `describe cousin(X, Y) where sibling(A, B) and parent(A, X).`)
	if !strings.Contains(got, "cousin(X, Y) <- parent(B, Y)") {
		t.Errorf("= %q", got)
	}
}

func TestGenealogyExtensions(t *testing.T) {
	k := loadGenealogy(t)
	// Could someone be their own ancestor? The constraint forbids it.
	got := exec(t, k, `describe where ancestor(X, X).`)
	if !strings.HasPrefix(got, "false") {
		t.Errorf("acyclicity constraint must refute it: %q", got)
	}
	// Could a person be born twice, in different years? The key forbids it.
	got = exec(t, k, `describe where born(X, Y1) and born(X, Y2) and Y1 < Y2.`)
	if !strings.HasPrefix(got, "false") {
		t.Errorf("the born key must refute it: %q", got)
	}
	// Is the parent link necessary for ancestry? (It is the only route.)
	got = exec(t, k, `describe ancestor(X, Y) where not parent(A, B).`)
	if !strings.HasPrefix(got, "false") {
		t.Errorf("parenthood is necessary for ancestry: %q", got)
	}
	// elder vs sibling: unrelated concepts.
	got = exec(t, k, `compare (describe elder(X, Y)) with (describe sibling(X, Y)).`)
	if !strings.Contains(got, "unrelated") {
		t.Errorf("= %q", got)
	}
}

// TestGenealogyAllEnginesAgree: each bound goal runs top-down, the same
// goal with its constant bound by an equality runs semi-naive, and both
// answer alike.
func TestGenealogyAllEnginesAgree(t *testing.T) {
	k := loadGenealogy(t)
	for bound, free := range map[string]string{
		`retrieve ancestor(X, gina).`: `retrieve ancestor(X, Y) where Y = gina.`,
		`retrieve sibling(dora, Y).`:  `retrieve sibling(X, Y) where X = dora.`,
		`retrieve married(X, beth).`:  `retrieve married(X, Y) where Y = beth.`,
	} {
		b := execOn(t, k, bound, "topdown")
		f := execOn(t, k, free, "seminaive")
		if b != f || b == "" {
			t.Errorf("%s: engines disagree: %q vs %q", bound, b, f)
		}
	}
}

func TestGenealogyDisplayName(t *testing.T) {
	k := loadGenealogy(t)
	k.SetDescribeOptions(kdb.DescribeOptions{KeepSteps: true})
	got := exec(t, k, `describe ancestor(X, Y) where ancestor(beth, Y).`)
	if !strings.Contains(got, "lineage(beth, X)") {
		t.Errorf("@name lineage must render: %q", got)
	}
}
