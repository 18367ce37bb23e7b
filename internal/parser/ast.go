package parser

import (
	"fmt"
	"strings"

	"kdb/internal/term"
)

// Program is a parsed knowledge-base source file: a sequence of clauses
// (facts and rules), integrity constraints, and declarations, in source
// order.
type Program struct {
	Clauses []term.Rule
	// Constraints are the paper's second Horn-clause form, ¬(p1 ∧ … ∧ pn),
	// written as a headless clause `:- p1, …, pn.`: the conjunction must
	// never hold.
	Constraints []term.Formula
	// ConstraintPos records the source position of each constraint,
	// parallel to Constraints.
	ConstraintPos []term.Pos
	Declarations  []Declaration
}

// Declaration is a schema annotation introduced with '@'.
//
//	@key student/3 1.        — column 1 of student/3 is a key (§6 ext. 3)
//	@name prior_step chain.  — preferred display name for the artificial
//	                           predicate introduced when transforming the
//	                           recursive predicate (§5.3 naming discussion)
type Declaration struct {
	Kind DeclKind
	Pos  Pos
	// Pred is the predicate the declaration applies to ("student").
	Pred string
	// Arity of the predicate (3 in student/3).
	Arity int
	// Columns are 1-based column numbers for @key.
	Columns []int
	// Name is the preferred display name for @name.
	Name string
}

// DeclKind enumerates declaration kinds.
type DeclKind uint8

// Declaration kinds.
const (
	DeclKey DeclKind = iota
	DeclName
)

// String renders the declaration in surface syntax.
func (d Declaration) String() string {
	switch d.Kind {
	case DeclKey:
		cols := make([]string, len(d.Columns))
		for i, c := range d.Columns {
			cols[i] = fmt.Sprint(c)
		}
		return fmt.Sprintf("@key %s/%d %s.", d.Pred, d.Arity, strings.Join(cols, " "))
	case DeclName:
		return fmt.Sprintf("@name %s %s.", d.Pred, d.Name)
	default:
		return fmt.Sprintf("@unknown(%d)", d.Kind)
	}
}

// Query is a parsed query statement: one of *Retrieve, *Describe,
// *Compare, *Explain, or *Profile.
type Query interface {
	fmt.Stringer
	isQuery()
}

// QueryKind names the statement form, as the query's record, metrics,
// span labels and server responses report it.
func QueryKind(q Query) string {
	switch s := q.(type) {
	case *Retrieve:
		return "retrieve"
	case *Describe:
		switch {
		case s.Wildcard:
			return "describe-wildcard"
		case s.Subjectless:
			return "possible"
		case len(s.Not) > 0:
			return "describe-not"
		default:
			return "describe"
		}
	case *Compare:
		return "compare"
	case *Explain:
		return "explain"
	case *Profile:
		return "profile"
	default:
		return "unknown"
	}
}

// Retrieve is the paper's data-query statement (§3.1), extended with the
// disjunctive qualifiers of §6's second research direction:
//
//	retrieve p where ψ.
//	retrieve p where ψ1 or ψ2.
type Retrieve struct {
	Subject term.Atom
	// Where is the first (or only) disjunct of the qualifier.
	Where term.Formula
	// Or holds the remaining disjuncts, if any.
	Or  []term.Formula
	Pos Pos
}

func (*Retrieve) isQuery() {}

// Disjuncts returns the qualifier as a disjunction of conjunctions; a
// missing qualifier yields one empty (true) disjunct.
func (q *Retrieve) Disjuncts() []term.Formula {
	return append([]term.Formula{q.Where}, q.Or...)
}

// String renders the statement in surface syntax.
func (q *Retrieve) String() string {
	s := "retrieve " + q.Subject.String()
	if len(q.Where) > 0 {
		s += " where " + q.Where.String()
		for _, d := range q.Or {
			s += " or " + d.String()
		}
	}
	return s + "."
}

// Describe is the paper's knowledge-query statement (§3.2) together with
// the §6 extensions:
//
//	describe p where ψ.                  — basic knowledge query
//	describe p where necessary ψ.        — extension 1
//	describe p where not h and ψ.        — extension 2 (negated conjuncts)
//	describe where ψ.                    — extension 3 (subjectless)
//	describe * where ψ.                  — extension 4 (wildcard subject)
type Describe struct {
	// Subject is the queried atom. It is meaningless when Subjectless or
	// Wildcard is set.
	Subject term.Atom
	// Subjectless marks `describe where ψ` (possibility check).
	Subjectless bool
	// Wildcard marks `describe * where ψ`.
	Wildcard bool
	// Necessary marks `where necessary ψ`.
	Necessary bool
	// Where is the positive part of the hypothesis (the first disjunct
	// when Or is non-empty).
	Where term.Formula
	// Or holds additional hypothesis disjuncts (§6's second research
	// direction); it cannot be combined with Not, Necessary, Wildcard, or
	// Subjectless.
	Or []term.Formula
	// Not holds the negated hypothesis conjuncts (`not h`).
	Not term.Formula
	Pos Pos
}

// Disjuncts returns the hypothesis as a disjunction of conjunctions.
func (q *Describe) Disjuncts() []term.Formula {
	return append([]term.Formula{q.Where}, q.Or...)
}

func (*Describe) isQuery() {}

// String renders the statement in surface syntax.
func (q *Describe) String() string {
	var b strings.Builder
	b.WriteString("describe")
	switch {
	case q.Wildcard:
		b.WriteString(" *")
	case q.Subjectless:
		// no subject
	default:
		b.WriteByte(' ')
		b.WriteString(q.Subject.String())
	}
	if len(q.Where) > 0 || len(q.Not) > 0 {
		b.WriteString(" where ")
		if q.Necessary {
			b.WriteString("necessary ")
		}
		parts := make([]string, 0, len(q.Where)+len(q.Not))
		for _, a := range q.Where {
			parts = append(parts, a.String())
		}
		for _, a := range q.Not {
			parts = append(parts, "not "+a.String())
		}
		b.WriteString(strings.Join(parts, " and "))
		for _, d := range q.Or {
			b.WriteString(" or ")
			b.WriteString(d.String())
		}
	}
	b.WriteByte('.')
	return b.String()
}

// Explain is the why-provenance statement: it evaluates the subject
// like a retrieve (with an optional positive qualifier) while recording
// derivation witnesses, then reconstructs the derivation tree of every
// answer:
//
//	explain p(a, b).
//	explain p(X) where q(X).
type Explain struct {
	Subject term.Atom
	Where   term.Formula
	Pos     Pos
}

func (*Explain) isQuery() {}

// String renders the statement in surface syntax.
func (q *Explain) String() string {
	s := "explain " + q.Subject.String()
	if len(q.Where) > 0 {
		s += " where " + q.Where.String()
	}
	return s + "."
}

// Profile is the cost-accounting statement: it evaluates the subject
// like a retrieve (with an optional positive qualifier) while recording
// per-rule cost rows — wall time, rounds, tuples, probe counts — and
// renders the annotated plan alongside the answers:
//
//	profile p(a, b).
//	profile p(X) where q(X).
type Profile struct {
	Subject term.Atom
	Where   term.Formula
	Pos     Pos
}

func (*Profile) isQuery() {}

// String renders the statement in surface syntax.
func (q *Profile) String() string {
	s := "profile " + q.Subject.String()
	if len(q.Where) > 0 {
		s += " where " + q.Where.String()
	}
	return s + "."
}

// Compare is the §6 concept-comparison statement:
//
//	compare (describe p1 where ψ1) with (describe p2 where ψ2).
type Compare struct {
	Left, Right *Describe
	Pos         Pos
}

func (*Compare) isQuery() {}

// String renders the statement in surface syntax.
func (q *Compare) String() string {
	l := strings.TrimSuffix(q.Left.String(), ".")
	r := strings.TrimSuffix(q.Right.String(), ".")
	return fmt.Sprintf("compare (%s) with (%s).", l, r)
}
