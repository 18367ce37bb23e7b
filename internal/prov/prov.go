// Package prov implements why-provenance for derived facts: while an
// evaluation engine runs with recording enabled, every newly derived
// fact is paired with one witness — the rule that fired and the ground
// parent facts that satisfied its body. The store is compact (one
// witness per fact, first derivation wins, rules interned by identity)
// and the derivation tree of any recorded fact can be reconstructed
// after the query, cycle-safely, with EDB and built-in leaves
// distinguished as in the paper's derivation trees (Algorithm 1).
//
// Recording is strictly opt-in: engines hold a nil *Recorder by default
// and guard every call site with a nil check, so the hot derive path of
// an unrecorded query pays nothing (enforced by alloc-counting tests in
// internal/eval).
package prov

import (
	"sync"

	"kdb/internal/term"
)

// Witness is one recorded derivation step: Fact was produced by the
// rule identified by RuleID within the recorder, from the ground Body
// atoms — parent facts and the comparison atoms that held, in rule-body
// order (comparisons are told apart by term.IsComparison).
type Witness struct {
	Fact   term.Atom
	RuleID int
	Body   []term.Atom
}

// Recorder accumulates witnesses during one evaluation. It is safe for
// concurrent use (the parallel scheduler shares it across SCC workers).
// All methods are nil-safe so ungoverned call sites stay trivial.
type Recorder struct {
	mu        sync.Mutex
	witnesses map[string]*Witness // fact key → first witness
	ruleIDs   map[string]int      // rule key → id (index into rules)
	rules     []term.Rule
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		witnesses: make(map[string]*Witness),
		ruleIDs:   make(map[string]int),
	}
}

// Record stores the first witness for fact: rule fired under
// substitution s, with body the (possibly partially instantiated) rule
// body whose full instantiation under s yields the parent facts. It
// returns the total number of recorded witnesses, which the caller
// checks against the governor's MaxProvenanceEntries.
//
// Later witnesses for an already recorded fact are ignored: the first
// derivation is the one the reconstruction shows, which keeps the
// witness graph well-founded for a single engine run.
func (r *Recorder) Record(fact term.Atom, rule term.Rule, body term.Formula, s term.Subst) int {
	if r == nil {
		return 0
	}
	key := fact.Key()

	r.mu.Lock()
	if _, dup := r.witnesses[key]; dup {
		n := len(r.witnesses)
		r.mu.Unlock()
		return n
	}
	r.mu.Unlock()

	// Build the witness outside the lock: Key/Apply allocate and the
	// parallel engines contend on this recorder.
	w := &Witness{Fact: fact}
	for _, a := range body {
		w.Body = append(w.Body, s.Apply(a))
	}
	ruleKey := rule.Key()

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.witnesses[key]; dup { // lost the race to another worker
		return len(r.witnesses)
	}
	id, ok := r.ruleIDs[ruleKey]
	if !ok {
		id = len(r.rules)
		r.ruleIDs[ruleKey] = id
		r.rules = append(r.rules, rule)
	}
	w.RuleID = id
	r.witnesses[key] = w
	return len(r.witnesses)
}

// Len returns the number of recorded witnesses.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.witnesses)
}

// witness returns the recorded witness for the ground atom, or nil.
func (r *Recorder) witness(key string) *Witness {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.witnesses[key]
}

// rule returns the interned rule with the given id.
func (r *Recorder) rule(id int) term.Rule {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rules[id]
}
