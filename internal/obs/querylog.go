package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"kdb/internal/obs/profile"
)

// QueryLogRecord is the one record of a finished query — what ran, how
// long it took, why it stopped, and what its own evaluation measured —
// read by every finished-query sink: QueryMetrics.Observe, the query
// log (one JSON line) and the root span. The trace id matches the root
// span's ID() when tracing was enabled for the same query, so a
// slow-log line can be joined against its trace.
type QueryLogRecord struct {
	TimeRFC   string `json:"time"`
	Statement string `json:"stmt"`
	Kind      string `json:"kind"`
	DurUS     int64  `json:"dur_us"`
	Error     string `json:"error,omitempty"`
	Stop      string `json:"stop,omitempty"`
	TraceID   uint64 `json:"trace_id,omitempty"`
	// Tenant and Client identify the remote principal when the query
	// arrived through the kdb server (ContextWithClient); both are empty
	// for library and REPL queries.
	Tenant string `json:"tenant,omitempty"`
	Client string `json:"client,omitempty"`
	// The query's evaluation counters, summed over its disjuncts;
	// present only when it ran a retrieve-style evaluation. Engine names
	// each strategy that ran, in run order ("topdown+seminaive").
	Engine      string `json:"engine,omitempty"`
	Facts       int64  `json:"facts,omitempty"`
	Lookups     int64  `json:"lookups,omitempty"`
	Iterations  int64  `json:"iterations,omitempty"`
	Probes      int64  `json:"probes,omitempty"`
	FullScans   int64  `json:"full_scans,omitempty"`
	Candidates  int64  `json:"candidates,omitempty"`
	IndexBuilds int64  `json:"index_builds,omitempty"`
	ProvEntries int64  `json:"provenance_entries,omitempty"`
	// Nodes the describe search expanded (a describe, or a retrieve's
	// intensional answer) and derivation-tree nodes an explain rebuilt.
	DescribeNodes int64 `json:"describe_nodes,omitempty"`
	ExplainNodes  int64 `json:"explain_nodes,omitempty"`
	// Profile holds the per-rule cost rows when the query ran with
	// profiling enabled, so a slow-log line carries its own "explain
	// analyze" instead of requiring a re-run.
	Profile []profile.Row `json:"profile,omitempty"`
}

// QueryLog appends one JSONL record per finished query to a writer —
// every query, or only those at or above a slow threshold. A nil
// *QueryLog is valid and records nothing, matching the package's
// nil-receiver contract.
type QueryLog struct {
	mu   sync.Mutex
	w    io.Writer
	slow time.Duration
	now  func() time.Time // test hook; nil means time.Now
}

// NewQueryLog returns a query log writing to w. With slow > 0 only
// queries of at least that duration are logged (the --slow-query
// threshold); slow == 0 logs every query.
func NewQueryLog(w io.Writer, slow time.Duration) *QueryLog {
	return &QueryLog{w: w, slow: slow}
}

// SetClock overrides the timestamp source (tests normalize time).
func (l *QueryLog) SetClock(now func() time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.now = now
	l.mu.Unlock()
}

// Observe appends one record if it clears the slow threshold. Encoding
// and writing happen under the log's lock so concurrent queries never
// interleave lines.
func (l *QueryLog) Observe(rec QueryLogRecord) error {
	if l == nil {
		return nil
	}
	d := time.Duration(rec.DurUS) * time.Microsecond
	l.mu.Lock()
	defer l.mu.Unlock()
	if d < l.slow {
		return nil
	}
	now := time.Now
	if l.now != nil {
		now = l.now
	}
	rec.TimeRFC = now().UTC().Format(time.RFC3339Nano)
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = l.w.Write(b)
	return err
}
