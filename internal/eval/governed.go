package eval

import (
	"errors"

	"kdb/internal/term"
)

// StopError is the error an engine returns when the query governor
// stopped an evaluation: it wraps the underlying breach (a
// governor.LimitError, a cancellation matching governor.ErrCanceled /
// context.DeadlineExceeded, or a governor.PanicError) and carries the
// statistics snapshot at stop time, with EvalStats.StopReason set.
type StopError struct {
	// Stats is the evaluation record at the moment the governor fired.
	Stats *EvalStats
	// Err is the underlying breach.
	Err error
}

func (e *StopError) Error() string { return e.Err.Error() }

// StatsOf returns an evaluation's statistics from its outcome: the
// answer's, or the snapshot a governed stop carries; nil when nothing
// was evaluated (a planning error).
func StatsOf(res *Result, err error) *EvalStats {
	if err == nil {
		return res.Stats
	}
	var se *StopError // declared here: it escapes, so only a failure pays for it
	if errors.As(err, &se) {
		return se.Stats
	}
	return nil
}

// Unwrap exposes the breach to errors.Is / errors.As.
func (e *StopError) Unwrap() error { return e.Err }

// DeriveHook, when non-nil, observes every head atom the engines derive
// (bottom-up sinks and top-down table inserts). It exists so tests can
// inject failures — including panics — inside rule evaluation;
// production code leaves it nil.
var DeriveHook func(term.Atom)
