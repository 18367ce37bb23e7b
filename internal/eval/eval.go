// Package eval implements the paper's data queries (§3.1): the
// `retrieve p where ψ` statement over a knowledge-rich database. New
// returns the production engine, which plans each query once and lets
// the plan pick one of two strategies:
//
//   - top-down: goal-directed SLD resolution with naive-iteration
//     tabling, terminating on all Datalog programs. It runs when the
//     query binds an argument of a rule-defined predicate, so only what
//     the goal reaches is evaluated.
//   - semi-naive: bottom-up with delta relations per recursive SCC. It
//     runs every other query: free goals, stored-relation reads, sys_*
//     reads.
//
// NewSemiNaive and NewTopDown fix one strategy; NewNaive, the bottom-up
// naive fixpoint, is the test oracle. All of them agree on every
// program (property-tested); retrieve answers are sets of bindings for
// the free variables of the subject.
//
// The subject may be an EDB predicate, an IDB predicate, or — as in the
// paper's Example 2 — a new predicate defined entirely by the qualifier.
package eval

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"kdb/internal/builtin"
	"kdb/internal/depgraph"
	"kdb/internal/storage"
	"kdb/internal/term"
)

// Input is the database an engine evaluates against: stored facts plus
// IDB rules, and optionally a provider of virtual system relations.
type Input struct {
	Store *storage.Store
	Rules []term.Rule
	// Virtual optionally serves read-only system relations (sys_*).
	// Programs that never reference a virtual predicate evaluate
	// exactly as if the field were nil, with zero added allocations.
	Virtual Virtual
}

// Query is one retrieve statement.
type Query struct {
	Subject term.Atom
	Where   term.Formula
}

// Result is the extensional answer to a retrieve: one binding tuple per
// derived instantiation of the subject's free variables, duplicate-free,
// in derivation order.
type Result struct {
	// Vars are the free variables of the subject, in order of occurrence.
	Vars []term.Term
	// Tuples are the bindings, parallel to Vars.
	Tuples []storage.Tuple
	// Stats is the record of the evaluation that produced the answer; a
	// governed stop carries it on the *StopError instead.
	Stats *EvalStats
}

// Atoms renders the result as instantiated subject atoms.
func (r *Result) Atoms(subject term.Atom) []term.Atom {
	out := make([]term.Atom, 0, len(r.Tuples))
	for _, t := range r.Tuples {
		s := term.NewSubst(len(r.Vars))
		for i, v := range r.Vars {
			s[v] = t[i]
		}
		out = append(out, s.Apply(subject))
	}
	return out
}

// Sorted returns the binding tuples in a deterministic total order.
func (r *Result) Sorted() []storage.Tuple {
	out := make([]storage.Tuple, len(r.Tuples))
	copy(out, r.Tuples)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if c := a[k].Compare(b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

// Strings renders the sorted binding tuples, for tests and display.
func (r *Result) Strings() []string {
	out := make([]string, 0, len(r.Tuples))
	for _, t := range r.Sorted() {
		parts := make([]string, len(t))
		for i, x := range t {
			parts[i] = x.String()
		}
		out = append(out, strings.Join(parts, ", "))
	}
	return out
}

// Engine evaluates retrieve queries.
type Engine interface {
	// Name identifies the evaluation strategy.
	Name() string
	// RetrieveContext evaluates one query under the context and the
	// engine's configured limits (WithLimits). Cancellation, deadline
	// expiry, and limit breaches stop the evaluation promptly and
	// return a *StopError wrapping the structured breach; an internal
	// panic is contained and surfaces as a *governor.PanicError.
	RetrieveContext(ctx context.Context, q Query) (*Result, error)
}

// queryPredName is the reserved head predicate of the internal query rule.
const queryPredName = "__query__"

// plan is the preprocessed form of a query shared by all engines: a query
// rule __query__(vars of subject) :- [subject,] where-atoms, and the
// dependency graph of the rule set extended with it.
type plan struct {
	rule  term.Rule
	vars  []term.Term
	graph *depgraph.Graph
	// virtual holds the per-query snapshots of every virtual predicate
	// the program references; nil when the program references none.
	// Snapshotting at plan time gives one consistent read-only state to
	// the whole evaluation, on every engine.
	virtual map[string]*storage.Relation
}

// buildPlan constructs and safety-checks the internal query rule. If the
// subject's predicate is known (it has rules or stored facts), the
// subject atom joins the body; otherwise the subject is a new predicate
// defined through the qualifier (paper §3.1, Example 2).
func buildPlan(in Input, q Query) (*plan, error) {
	if term.IsComparison(q.Subject) {
		return nil, fmt.Errorf("eval: the subject of retrieve cannot be a comparison")
	}
	for _, a := range q.Where {
		// The paper prohibits X = Y atoms in qualifiers (§3.1).
		if a.Pred == term.PredEq && a.Args[0].IsVar() && a.Args[1].IsVar() {
			return nil, fmt.Errorf("eval: qualifier may not contain %v (variable = variable)", a)
		}
	}
	known := in.Store.Relation(q.Subject.Pred) != nil
	if !known && in.Virtual != nil && in.Virtual.IsVirtual(q.Subject.Pred) {
		known = true
	}
	if !known {
		for _, r := range in.Rules {
			if r.Head.Pred == q.Subject.Pred {
				known = true
				break
			}
		}
	}
	vars := q.Subject.Vars(nil)
	var body term.Formula
	if known {
		body = append(body, q.Subject)
	}
	body = append(body, q.Where...)
	rule := term.Rule{Head: term.NewAtom(queryPredName, vars...), Body: body}
	rules := make([]term.Rule, 0, len(in.Rules)+1)
	rules = append(rules, in.Rules...)
	rules = append(rules, rule)
	if err := checkSafety(rules); err != nil {
		return nil, err
	}
	virt, err := virtualSnapshots(in.Virtual, rules)
	if err != nil {
		return nil, err
	}
	return &plan{
		rule:    rule,
		vars:    vars,
		graph:   depgraph.New(rules),
		virtual: virt,
	}, nil
}

// CheckSafety verifies that every rule is range-restricted (evaluable by
// the engines): all head variables and all variables of non-equality
// comparisons must be bound by ordinary body atoms, with equality atoms
// propagating bindings. It returns the first violation.
func CheckSafety(rules []term.Rule) error { return checkSafety(rules) }

// atPos renders " (at file:line:col)" for rules with a known source
// position, so safety errors point at the offending clause.
func atPos(r term.Rule) string {
	if !r.Pos.IsValid() {
		return ""
	}
	return fmt.Sprintf(" (at %s)", r.Pos)
}

// checkSafety verifies that every rule is range-restricted under the
// greedy evaluation order: all head variables and all variables of
// non-equality comparison atoms must be bound by ordinary body atoms
// (equality atoms may propagate bindings).
func checkSafety(rules []term.Rule) error {
	for _, r := range rules {
		bound := make(map[term.Term]bool)
		for _, a := range r.Body {
			if term.IsComparison(a) {
				continue
			}
			for _, v := range a.Vars(nil) {
				bound[v] = true
			}
		}
		// Equality atoms propagate: X = c binds X; X = Y binds either from
		// the other. Iterate to a fixpoint.
		for changed := true; changed; {
			changed = false
			for _, a := range r.Body {
				if a.Pred != term.PredEq || len(a.Args) != 2 {
					continue
				}
				l, rr := a.Args[0], a.Args[1]
				lB := !l.IsVar() || bound[l]
				rB := !rr.IsVar() || bound[rr]
				if lB && !rB {
					bound[rr] = true
					changed = true
				}
				if rB && !lB {
					bound[l] = true
					changed = true
				}
			}
		}
		for _, v := range r.Head.Vars(nil) {
			if !bound[v] {
				return fmt.Errorf("eval: unsafe rule %v%s: head variable %v is not bound by the body", r, atPos(r), v)
			}
		}
		for _, a := range r.Body {
			if !term.IsComparison(a) || a.Pred == term.PredEq {
				continue
			}
			for _, v := range a.Vars(nil) {
				if !bound[v] {
					return fmt.Errorf("eval: unsafe rule %v%s: comparison variable %v is not bound", r, atPos(r), v)
				}
			}
		}
	}
	return nil
}

// lookup resolves one non-builtin body atom: it calls fn with every
// extension of base that makes the atom true, until fn returns false.
type lookup func(a term.Atom, base term.Subst, fn func(term.Subst) bool) error

// solveBody enumerates all substitutions extending base that satisfy the
// conjunction, resolving ordinary atoms through lk. Atoms are chosen
// greedily: ground comparisons are evaluated as early as possible,
// equality atoms propagate bindings, and ordinary atoms are joined
// left-to-right otherwise. fn returning false stops the enumeration; the
// first return value reports whether enumeration should continue at the
// caller's level.
func solveBody(body []term.Atom, base term.Subst, lk lookup, fn func(term.Subst) bool) (bool, error) {
	if len(body) == 0 {
		return fn(base), nil
	}
	idx, err := chooseAtom(body, base)
	if err != nil {
		return false, err
	}
	atom := body[idx]
	rest := make([]term.Atom, 0, len(body)-1)
	rest = append(rest, body[:idx]...)
	rest = append(rest, body[idx+1:]...)

	if term.IsComparison(atom) {
		bound := base.Apply(atom)
		if atom.Pred == term.PredEq && (bound.Args[0].IsVar() || bound.Args[1].IsVar()) {
			// Equality with an unbound side: bind by unification.
			s := base.Clone()
			if s == nil {
				s = term.NewSubst(1)
			}
			l, r := s.Walk(bound.Args[0]), s.Walk(bound.Args[1])
			switch {
			case l == r:
			case l.IsVar():
				s.Bind(l, r)
			case r.IsVar():
				s.Bind(r, l)
			default:
				return true, nil // distinct constants: equality fails
			}
			return solveBody(rest, s, lk, fn)
		}
		ok, err := builtin.Eval(bound)
		if err != nil {
			return false, err
		}
		if !ok {
			return true, nil
		}
		return solveBody(rest, base, lk, fn)
	}

	cont := true
	err = lk(atom, base, func(ext term.Subst) bool {
		c, err2 := solveBody(rest, ext, lk, fn)
		if err2 != nil {
			err = err2
			return false
		}
		cont = c
		return c
	})
	if err != nil {
		return false, err
	}
	return cont, nil
}

// chooseAtom picks the next body atom to resolve: a ready comparison if
// any (ground, or an equality with at most one unbound side, or an
// equality between variables as a last resort among comparisons), else
// the first ordinary atom.
func chooseAtom(body []term.Atom, s term.Subst) (int, error) {
	firstOrdinary := -1
	firstEq := -1
	firstStuck := -1
	for i, a := range body {
		if !term.IsComparison(a) {
			if firstOrdinary < 0 {
				firstOrdinary = i
			}
			continue
		}
		bound := s.Apply(a)
		groundArgs := 0
		for _, t := range bound.Args {
			if t.IsConst() {
				groundArgs++
			}
		}
		if groundArgs == 2 {
			return i, nil // fully ground comparison: cheapest filter
		}
		if a.Pred == term.PredEq {
			if groundArgs == 1 {
				return i, nil // binds its variable immediately
			}
			if firstEq < 0 {
				firstEq = i
			}
		} else if firstStuck < 0 {
			firstStuck = i // a non-equality comparison with an unbound side
		}
	}
	if firstOrdinary >= 0 {
		return firstOrdinary, nil
	}
	if firstEq >= 0 {
		return firstEq, nil
	}
	// Only unevaluable comparisons remain. Report the actual offender
	// (the first non-equality comparison with an unbound variable, after
	// applying the substitution so the message shows what is bound), not
	// blindly body[0].
	offender := body[0]
	if firstStuck >= 0 {
		offender = body[firstStuck]
	}
	return 0, fmt.Errorf("eval: cannot evaluate %v: unbound comparison", s.Apply(offender))
}

// relevantPreds returns the predicates reachable from the query rule,
// including the query predicate itself.
func (p *plan) relevantPreds() map[string]bool {
	out := map[string]bool{queryPredName: true}
	for _, a := range p.rule.Body {
		if term.IsComparison(a) {
			continue
		}
		out[a.Pred] = true
		for q := range p.graphReach(a.Pred) {
			out[q] = true
		}
	}
	return out
}

func (p *plan) graphReach(pred string) map[string]bool {
	reach := make(map[string]bool)
	var stack []string
	stack = append(stack, pred)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, r := range p.graph.RulesFor(v) {
			for _, a := range r.Body {
				if term.IsComparison(a) || reach[a.Pred] {
					continue
				}
				reach[a.Pred] = true
				stack = append(stack, a.Pred)
			}
		}
	}
	return reach
}
