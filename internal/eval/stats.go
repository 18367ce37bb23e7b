package eval

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"
)

// ComponentStats records the evaluation of one strongly connected
// component of the rule dependency graph.
type ComponentStats struct {
	// Preds are the component's predicates (sorted).
	Preds []string `json:"preds"`
	// Skipped marks components that were irrelevant to the query (or had
	// no rules) and were not evaluated.
	Skipped bool `json:"skipped,omitempty"`
	// Recursive reports whether the component required fixpoint iteration.
	Recursive bool `json:"recursive,omitempty"`
	// Iterations counts rule-application rounds, the first included.
	Iterations int `json:"iterations,omitempty"`
	// Facts counts the facts newly derived by this component.
	Facts int `json:"facts,omitempty"`
	// DeltaSizes records, per iteration, how many fresh facts that round
	// contributed (the size of the next semi-naive delta).
	DeltaSizes []int `json:"delta_sizes,omitempty"`
	// Lookups counts body-atom lookups issued while evaluating the
	// component (each is one probe of a derived and/or stored relation).
	Lookups int64 `json:"lookups,omitempty"`
	// Wall is the component's wall-clock evaluation time.
	Wall time.Duration `json:"wall_ns,omitempty"`
}

// EvalStats is the observability record of one Retrieve evaluation.
type EvalStats struct {
	// Engine names the evaluation strategy that produced the record.
	Engine string `json:"engine"`
	// Workers is the SCC worker-pool size used (1 = sequential).
	Workers int `json:"workers"`
	// Components holds one entry per SCC in dependency order (bottom-up
	// engines; empty for top-down). The order is deterministic: it is
	// the condensation's topological order with ties broken by sorted
	// predicate names, independent of scheduling.
	Components []ComponentStats `json:"components,omitempty"`
	// Facts is the total number of facts derived.
	Facts int `json:"facts"`
	// Lookups is the total number of body-atom lookups issued (summed over
	// components for bottom-up engines).
	Lookups int64 `json:"lookups"`
	// Passes counts naive-iteration passes (top-down engine only).
	Passes int `json:"passes,omitempty"`
	// Tables counts call-pattern tables (top-down engine only).
	Tables int `json:"tables,omitempty"`
	// Probes, Candidates, and IndexBuilds aggregate the storage-level
	// counters of every relation the evaluation touched: Select calls
	// served, candidate tuples examined, and hash indexes built.
	// FullScans counts the probes that had no usable index and walked
	// the full extension (Probes - FullScans were index-served).
	Probes      int64 `json:"probes"`
	FullScans   int64 `json:"full_scans,omitempty"`
	Candidates  int64 `json:"candidates"`
	IndexBuilds int64 `json:"index_builds"`
	// ProvEntries is the number of why-provenance witnesses this
	// evaluation recorded (zero when recording was disabled).
	ProvEntries int `json:"provenance_entries,omitempty"`
	// Wall is the end-to-end evaluation time.
	Wall time.Duration `json:"wall_ns"`
	// StopReason is empty for a run-to-completion evaluation; a governed
	// stop records why ("deadline", "canceled", "limit:<kind>", "panic").
	// The record then holds the snapshot at stop time.
	StopReason string `json:"stop_reason,omitempty"`
}

// Add folds the record of another evaluation of the same query (the
// next disjunct of a retrieve, the next constraint of a check) into s
// and returns the sum; like append, s is updated in place and a nil s
// becomes o. Counters and wall times add, components append in run
// order, and Engine names each strategy once, in run order
// ("topdown+seminaive"). A nil o leaves s as it is.
func (s *EvalStats) Add(o *EvalStats) *EvalStats {
	if s == nil || o == nil {
		return cmp.Or(s, o)
	}
	if !slices.Contains(strings.Split(s.Engine, "+"), o.Engine) {
		s.Engine += "+" + o.Engine
	}
	s.Workers = max(s.Workers, o.Workers)
	s.Components = append(s.Components, o.Components...)
	s.Facts += o.Facts
	s.Lookups += o.Lookups
	s.Passes += o.Passes
	s.Tables += o.Tables
	s.Probes += o.Probes
	s.FullScans += o.FullScans
	s.Candidates += o.Candidates
	s.IndexBuilds += o.IndexBuilds
	s.ProvEntries += o.ProvEntries
	s.Wall += o.Wall
	if o.StopReason != "" {
		s.StopReason = o.StopReason
	}
	return s
}

// Iterations totals the fixpoint rounds: top-down passes plus SCC rounds.
func (s *EvalStats) Iterations() int64 {
	n := int64(s.Passes)
	for _, c := range s.Components {
		n += int64(c.Iterations)
	}
	return n
}

// String renders the record as a small report: one summary line followed
// by one line per evaluated component.
func (s *EvalStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine=%s workers=%d wall=%s facts=%d lookups=%d probes=%d (scan %d) candidates=%d index-builds=%d",
		s.Engine, s.Workers, s.Wall.Round(time.Microsecond), s.Facts, s.Lookups, s.Probes, s.FullScans, s.Candidates, s.IndexBuilds)
	if s.StopReason != "" {
		fmt.Fprintf(&b, " stop=%s", s.StopReason)
	}
	if s.Passes > 0 {
		fmt.Fprintf(&b, " passes=%d tables=%d", s.Passes, s.Tables)
	}
	if s.ProvEntries > 0 {
		fmt.Fprintf(&b, " provenance=%d", s.ProvEntries)
	}
	for _, c := range s.Components {
		if c.Skipped {
			continue
		}
		kind := "nonrec"
		if c.Recursive {
			kind = "recursive"
		}
		fmt.Fprintf(&b, "\n  scc [%s] %s iters=%d facts=%d lookups=%d wall=%s",
			strings.Join(c.Preds, " "), kind, c.Iterations, c.Facts, c.Lookups, c.Wall.Round(time.Microsecond))
		if len(c.DeltaSizes) > 0 {
			fmt.Fprintf(&b, " delta=%v", c.DeltaSizes)
		}
	}
	return b.String()
}
