// Package governor provides per-query execution control for the
// evaluation engines: cooperative cancellation (context deadlines and
// Ctrl-C), resource limits (derived facts, fixpoint iterations, tabling
// and describe-search budgets), and panic containment.
//
// Production deductive-query systems treat termination control as a
// first-class concern: a runaway recursive query must not hold the
// knowledge base's locks forever or exhaust memory with derived facts.
// A Governor is created at each engine entry point and threaded through
// the hot loops, which call its cheap cooperative checks; a breach
// surfaces as a structured, errors.Is/As-able error rather than an
// abandoned goroutine or a crash.
package governor

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// Limits are the per-query resource bounds. The zero value of every
// field means "unlimited"; a zero Limits governs nothing but still
// honors context cancellation.
type Limits struct {
	// MaxWall bounds the query's wall-clock time. It is applied as a
	// context deadline, so a breach surfaces as an error wrapping
	// context.DeadlineExceeded.
	MaxWall time.Duration
	// MaxFacts bounds the total number of facts a query may derive
	// (bottom-up: inserted tuples across all SCCs; top-down: table
	// answers).
	MaxFacts int
	// MaxIterations bounds the fixpoint rounds of any single recursive
	// SCC (bottom-up engines) and the naive-iteration passes of the
	// top-down driver.
	MaxIterations int
	// MaxTableEntries bounds the number of distinct call-pattern tables
	// a top-down evaluation may allocate; bottom-up evaluation has none.
	MaxTableEntries int
	// MaxDescribeNodes bounds the search steps of one describe
	// evaluation. Unlike the describe engine's own MaxNodes option
	// (which truncates and returns partial answers), a governor breach
	// is an error.
	MaxDescribeNodes int
	// MaxProvenanceEntries bounds the number of derivation witnesses a
	// query may record when provenance recording is enabled. It governs
	// nothing when recording is off.
	MaxProvenanceEntries int
}

// Clamp merges a requested Limits against a ceiling: the result never
// exceeds any ceiling bound. For each field, a zero ceiling leaves the
// request as-is (that resource is uncapped); a nonzero ceiling replaces
// a zero (unlimited) or looser request with the ceiling itself. A
// multi-tenant server uses this to let clients tighten — but never
// loosen — the per-request quotas it enforces.
func Clamp(req, ceiling Limits) Limits {
	req.MaxWall = clampDur(req.MaxWall, ceiling.MaxWall)
	req.MaxFacts = clampInt(req.MaxFacts, ceiling.MaxFacts)
	req.MaxIterations = clampInt(req.MaxIterations, ceiling.MaxIterations)
	req.MaxTableEntries = clampInt(req.MaxTableEntries, ceiling.MaxTableEntries)
	req.MaxDescribeNodes = clampInt(req.MaxDescribeNodes, ceiling.MaxDescribeNodes)
	req.MaxProvenanceEntries = clampInt(req.MaxProvenanceEntries, ceiling.MaxProvenanceEntries)
	return req
}

func clampInt(req, ceiling int) int {
	if ceiling > 0 && (req <= 0 || req > ceiling) {
		return ceiling
	}
	return req
}

func clampDur(req, ceiling time.Duration) time.Duration {
	if ceiling > 0 && (req <= 0 || req > ceiling) {
		return ceiling
	}
	return req
}

// LimitKind identifies which limit a LimitError reports.
type LimitKind string

// Limit kinds, one per Limits field enforced by LimitError (MaxWall
// breaches surface as context.DeadlineExceeded instead).
const (
	LimitFacts         LimitKind = "facts"
	LimitIterations    LimitKind = "iterations"
	LimitTableEntries  LimitKind = "tables"
	LimitDescribeNodes LimitKind = "describe-nodes"
	LimitProvenance    LimitKind = "provenance"
)

// ErrCanceled matches (via errors.Is) every error the governor returns
// for a canceled or expired context. The concrete error also wraps the
// context's cause, so errors.Is(err, context.DeadlineExceeded) and
// errors.Is(err, context.Canceled) work as expected.
var ErrCanceled = errors.New("governor: query canceled")

// canceledError wraps the context cause and additionally matches
// ErrCanceled.
type canceledError struct{ cause error }

func (e *canceledError) Error() string { return "governor: query canceled: " + e.cause.Error() }
func (e *canceledError) Unwrap() error { return e.cause }
func (e *canceledError) Is(target error) bool {
	return target == ErrCanceled
}

// LimitError reports a breached resource limit.
type LimitError struct {
	// Kind names the breached limit.
	Kind LimitKind
	// Limit is the configured bound that was exceeded.
	Limit int64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("governor: %s limit exceeded (max %d)", e.Kind, e.Limit)
}

// PanicError is an internal panic converted to an error at an engine
// boundary, so a bug in rule evaluation (or a hostile input that trips
// one) surfaces to the caller instead of killing its goroutine — or,
// on a parallel scheduler worker, the whole process.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at the panic site.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("governor: internal panic: %v", e.Value)
}

// Recover converts a panic on the current goroutine into a *PanicError
// assigned to *errp. Use it as a deferred call at engine entry points
// and on scheduler worker goroutines:
//
//	defer governor.Recover(&err)
func Recover(errp *error) {
	if v := recover(); v != nil {
		*errp = &PanicError{Value: v, Stack: debug.Stack()}
	}
}

// tickInterval amortizes context checks: Tick consults the context once
// every tickInterval calls, so the hot loops pay one atomic increment
// per call.
const tickInterval = 64

// Governor enforces one query's limits. It is safe for concurrent use
// (the parallel scheduler shares it across SCC workers); every check is
// nil-safe, so an ungoverned evaluation may simply pass a nil Governor.
type Governor struct {
	ctx    context.Context
	limits Limits
	facts  atomic.Int64
	ticks  atomic.Uint64
}

// New builds a governor for one query. When limits.MaxWall is set the
// context is wrapped with a deadline; the returned cancel function must
// be called (defer it) to release the timer.
func New(ctx context.Context, limits Limits) (*Governor, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	cancel := context.CancelFunc(func() {})
	if limits.MaxWall > 0 {
		ctx, cancel = context.WithTimeout(ctx, limits.MaxWall)
	}
	return &Governor{ctx: ctx, limits: limits}, cancel
}

// Err reports cancellation: nil while the query may continue, a
// *canceledError (matching ErrCanceled and the context cause) once the
// context is done.
func (g *Governor) Err() error {
	if g == nil {
		return nil
	}
	if err := g.ctx.Err(); err != nil {
		return &canceledError{cause: err}
	}
	return nil
}

// Tick is the amortized cooperative check for hot loops: it consults
// the context once every tickInterval calls.
func (g *Governor) Tick() error {
	if g == nil {
		return nil
	}
	if g.ticks.Add(1)%tickInterval != 0 {
		return nil
	}
	return g.Err()
}

// CountFacts adds n newly derived facts to the query-global tally and
// reports a LimitError once the tally exceeds MaxFacts.
func (g *Governor) CountFacts(n int) error {
	if g == nil {
		return nil
	}
	total := g.facts.Add(int64(n))
	if max := g.limits.MaxFacts; max > 0 && total > int64(max) {
		return &LimitError{Kind: LimitFacts, Limit: int64(max)}
	}
	return nil
}

// Facts returns the number of derived facts counted so far.
func (g *Governor) Facts() int64 {
	if g == nil {
		return 0
	}
	return g.facts.Load()
}

// CheckIterations guards a fixpoint round counter (per SCC, or the
// top-down engine's pass counter).
func (g *Governor) CheckIterations(n int) error {
	if g == nil {
		return nil
	}
	if max := g.limits.MaxIterations; max > 0 && n > max {
		return &LimitError{Kind: LimitIterations, Limit: int64(max)}
	}
	return nil
}

// CheckTableEntries guards the top-down engine's call-pattern table
// count.
func (g *Governor) CheckTableEntries(n int) error {
	if g == nil {
		return nil
	}
	if max := g.limits.MaxTableEntries; max > 0 && n > max {
		return &LimitError{Kind: LimitTableEntries, Limit: int64(max)}
	}
	return nil
}

// CheckProvenanceEntries guards the witness count of a provenance
// recorder.
func (g *Governor) CheckProvenanceEntries(n int) error {
	if g == nil {
		return nil
	}
	if max := g.limits.MaxProvenanceEntries; max > 0 && n > max {
		return &LimitError{Kind: LimitProvenance, Limit: int64(max)}
	}
	return nil
}

// CheckDescribeNodes guards the describe search's step counter.
func (g *Governor) CheckDescribeNodes(n int) error {
	if g == nil {
		return nil
	}
	if max := g.limits.MaxDescribeNodes; max > 0 && n > max {
		return &LimitError{Kind: LimitDescribeNodes, Limit: int64(max)}
	}
	return nil
}

// StopReason classifies a governed stop for observability records
// ("deadline", "canceled", "limit:<kind>", "panic") and returns "error"
// for any other failure. A nil error yields "".
func StopReason(err error) string {
	if err == nil {
		return ""
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return "deadline"
	}
	if errors.Is(err, ErrCanceled) || errors.Is(err, context.Canceled) {
		return "canceled"
	}
	var le *LimitError
	if errors.As(err, &le) {
		return "limit:" + string(le.Kind)
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return "panic"
	}
	return "error"
}
