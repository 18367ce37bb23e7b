package kb

import (
	"context"
	"errors"
	"strings"
	"testing"

	"kdb/internal/analysis"
)

func TestLoadRejectsUnsafeProgram(t *testing.T) {
	k := New()
	err := k.LoadString(`
e(1).
p(X, Y) :- e(X).
`)
	if err == nil {
		t.Fatal("unsafe program must be rejected at load")
	}
	var aerr *analysis.Error
	if !errors.As(err, &aerr) {
		t.Fatalf("want *analysis.Error, got %T: %v", err, err)
	}
	if !strings.Contains(err.Error(), "unsafe rule") {
		t.Errorf("error does not name the defect: %v", err)
	}
	// The rejection must leave the knowledge base untouched.
	if len(k.Rules()) != 0 || k.FactCount() != 0 {
		t.Errorf("rejected load mutated the KB: %d rules, %d facts", len(k.Rules()), k.FactCount())
	}
	// A clean follow-up load still works.
	if err := k.LoadString(`e(1). p(X) :- e(X).`); err != nil {
		t.Fatalf("clean load after rejection: %v", err)
	}
}

func TestDiagnosticsRetainedAcrossLoads(t *testing.T) {
	k := New()
	if err := k.LoadString(`
conn(a, b).
reach(X, Y) :- conn(X, Y).
reach(X, Y) :- reach(Y, X).
`); err != nil {
		t.Fatalf("load: %v", err)
	}
	rep := k.Diagnostics()
	if rep == nil {
		t.Fatal("no report after load")
	}
	var untyped bool
	for _, d := range rep.Warnings() {
		if d.Analyzer == "recursion" && strings.Contains(d.Message, "not typed") {
			untyped = true
		}
	}
	if !untyped {
		t.Errorf("missing untyped-recursion warning: %v", rep.Diagnostics)
	}
	if rep.Profile.Rules != 2 || rep.Profile.StronglyLinear != 1 {
		t.Errorf("bad profile: %+v", rep.Profile)
	}
	// An incremental load re-analyzes the combined program.
	if err := k.LoadString(`top(X) :- reach(X, b).`); err != nil {
		t.Fatalf("incremental load: %v", err)
	}
	if got := k.Diagnostics().Profile.Rules; got != 3 {
		t.Errorf("combined profile has %d rules, want 3", got)
	}
}

func TestDescribeAttachesNotesForBoundedSubject(t *testing.T) {
	k := New()
	if err := k.LoadString(`
conn(a, b).
reach(X, Y) :- conn(X, Y).
reach(X, Y) :- reach(Y, X).
linked(X) :- conn(X, Y).
`); err != nil {
		t.Fatalf("load: %v", err)
	}
	res, err := k.ExecStringContext(context.Background(), `describe reach(X, Y).`)
	if err != nil {
		t.Fatalf("describe: %v", err)
	}
	var noted bool
	for _, n := range res.Describe.Notes {
		if strings.Contains(n, "not typed") {
			noted = true
		}
	}
	if !noted {
		t.Errorf("describe answer carries no bounded-mode note: %v", res.Describe.Notes)
	}
	// A subject outside the undisciplined component gets no note.
	res, err = k.ExecStringContext(context.Background(), `describe linked(X).`)
	if err != nil {
		t.Fatalf("describe linked: %v", err)
	}
	if len(res.Describe.Notes) != 0 {
		t.Errorf("linked does not depend on reach; notes: %v", res.Describe.Notes)
	}
}

func TestDescribeDegenerateReportsDiagnostics(t *testing.T) {
	k := New()
	if err := k.LoadString(`
q(1).
p(a).
p(X) :- p(X), q(Y).
`); err != nil {
		t.Fatalf("load (warnings must not reject): %v", err)
	}
	_, err := k.ExecStringContext(context.Background(), `describe p(X).`)
	if err == nil {
		t.Fatal("describe on a degenerate recursive subject must fail")
	}
	var aerr *analysis.Error
	if !errors.As(err, &aerr) {
		t.Fatalf("want *analysis.Error with stored diagnostics, got %T: %v", err, err)
	}
	if !strings.Contains(err.Error(), "degenerate") {
		t.Errorf("error does not carry the analyzer finding: %v", err)
	}
}
