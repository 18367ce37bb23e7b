package kb

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"kdb/internal/governor"
	"kdb/internal/obs"
)

func fixedClock() func() time.Time {
	return func() time.Time { return time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC) }
}

func TestQueryLogRecordsQueries(t *testing.T) {
	var buf bytes.Buffer
	ql := obs.NewQueryLog(&buf, 0)
	ql.SetClock(fixedClock())
	k := New(WithQueryLog(ql))
	if err := k.LoadString(routesProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ExecStringContext(context.Background(), "retrieve hub(X)."); err == nil {
		// hub is not defined in routesProgram; either way the log gets a line.
		t.Log("retrieve hub succeeded")
	}
	if _, err := k.ExecStringContext(context.Background(), "retrieve reachable(la, X)."); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ExecStringContext(context.Background(), "explain reachable(la, ny)."); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ExecStringContext(context.Background(), "this is not a statement."); err == nil {
		t.Fatal("malformed statement parsed")
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d log lines, want 4:\n%s", len(lines), buf.String())
	}
	type rec struct {
		Time        string `json:"time"`
		Stmt        string `json:"stmt"`
		Kind        string `json:"kind"`
		DurUS       int64  `json:"dur_us"`
		Error       string `json:"error"`
		Engine      string `json:"engine"`
		Facts       int64  `json:"facts"`
		ProvEntries int64  `json:"provenance_entries"`
	}
	var recs []rec
	for _, l := range lines {
		var r rec
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
		if r.Time != "2026-01-02T03:04:05Z" {
			t.Errorf("time = %q, want the fixed clock", r.Time)
		}
		recs = append(recs, r)
	}
	if recs[1].Kind != "retrieve" || recs[1].Stmt != "retrieve reachable(la, X)." {
		t.Errorf("retrieve record: %+v", recs[1])
	}
	// The bound goal runs top-down, and the record names that engine.
	if recs[1].Engine != "topdown" || recs[1].Facts == 0 {
		t.Errorf("retrieve record missing eval deltas: %+v", recs[1])
	}
	if recs[1].ProvEntries != 0 {
		t.Errorf("plain retrieve recorded provenance: %+v", recs[1])
	}
	if recs[2].Kind != "explain" || recs[2].ProvEntries == 0 {
		t.Errorf("explain record: %+v", recs[2])
	}
	if recs[3].Kind != "parse" || recs[3].Error == "" {
		t.Errorf("parse-failure record: %+v", recs[3])
	}
}

func TestQueryLogSlowThreshold(t *testing.T) {
	var buf bytes.Buffer
	ql := obs.NewQueryLog(&buf, time.Hour) // nothing is that slow
	k := New(WithQueryLog(ql))
	if err := k.LoadString(routesProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ExecStringContext(context.Background(), "retrieve reachable(la, X)."); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("fast query logged despite slow threshold: %s", buf.String())
	}
}

func TestQueryLogTraceID(t *testing.T) {
	var buf bytes.Buffer
	ql := obs.NewQueryLog(&buf, 0)
	tr := obs.NewTracer()
	k := New(WithQueryLog(ql), WithTracer(tr))
	if err := k.LoadString(routesProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ExecStringContext(context.Background(), "retrieve reachable(la, X)."); err != nil {
		t.Fatal(err)
	}
	var rec struct {
		TraceID uint64 `json:"trace_id"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.TraceID == 0 {
		t.Error("trace_id missing with tracing enabled")
	}
	if root := tr.Last(); root == nil || root.ID() != rec.TraceID {
		t.Error("trace_id does not match the root span")
	}
	// File-level join: the JSONL trace export carries the same id as
	// span_id on its root record.
	var trace bytes.Buffer
	if err := obs.WriteJSONL(&trace, tr.Last()); err != nil {
		t.Fatal(err)
	}
	var span struct {
		SpanID uint64 `json:"span_id"`
	}
	first, _, _ := bytes.Cut(trace.Bytes(), []byte("\n"))
	if err := json.Unmarshal(first, &span); err != nil {
		t.Fatal(err)
	}
	if span.SpanID != rec.TraceID {
		t.Errorf("trace file span_id = %d, query log trace_id = %d", span.SpanID, rec.TraceID)
	}
}

func TestSetQueryLogDetach(t *testing.T) {
	var buf bytes.Buffer
	k := New(WithQueryLog(obs.NewQueryLog(&buf, 0)))
	if err := k.LoadString(routesProgram); err != nil {
		t.Fatal(err)
	}
	k.SetQueryLog(nil)
	if _, err := k.ExecStringContext(context.Background(), "retrieve reachable(la, X)."); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("detached query log still wrote: %s", buf.String())
	}
}

// logLines decodes every query-log line into a generic record.
func logLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	dec := json.NewDecoder(buf)
	for dec.More() {
		var rec map[string]any
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
	return out
}

// num reads a numeric query-log field; an absent field is zero.
func num(rec map[string]any, key string) int64 {
	v, _ := rec[key].(float64)
	return int64(v)
}

// TestConcurrentQueryLogAttribution: every log line carries its own
// query's numbers, even while other queries finish around it. A describe
// evaluates no retrieve, so its line has no eval counters; every
// retrieve line has exactly the facts one run of that retrieve derives.
// Run with -race.
func TestConcurrentQueryLogAttribution(t *testing.T) {
	var buf bytes.Buffer
	k := New(WithQueryLog(obs.NewQueryLog(&buf, 0)))
	if err := k.LoadString(routesProgram); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const retrieve, describe = "retrieve reachable(X, Y).", "describe reachable(X, Y)."
	if _, err := k.ExecStringContext(ctx, retrieve); err != nil {
		t.Fatal(err)
	}
	want := int64(k.LastStats().Facts)
	buf.Reset()

	const rounds = 300
	var wg sync.WaitGroup
	for _, stmt := range []string{retrieve, describe} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				if _, err := k.ExecStringContext(ctx, stmt); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	lines := logLines(t, &buf)
	if len(lines) != 2*rounds {
		t.Fatalf("%d log lines, want %d", len(lines), 2*rounds)
	}
	var foreign, wrong int
	for _, rec := range lines {
		switch rec["kind"] {
		case "describe":
			if rec["engine"] != nil || num(rec, "facts") != 0 || num(rec, "lookups") != 0 || num(rec, "probes") != 0 {
				foreign++
			}
		case "retrieve":
			if got := num(rec, "facts"); got != want {
				wrong++
			}
		default:
			t.Fatalf("unexpected record %v", rec)
		}
	}
	if foreign > 0 || wrong > 0 {
		t.Errorf("%d describe lines carry another query's eval counters; %d retrieve lines lack their own facts=%d",
			foreign, wrong, want)
	}
}

// TestSinksAgree: the metrics and the query log read one record per
// query, so each counter family equals its log field summed over every
// line — across a retrieve, a disjunctive retrieve, an explain, a
// describe and a governed stop.
func TestSinksAgree(t *testing.T) {
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	k := New(WithMetrics(reg), WithQueryLog(obs.NewQueryLog(&buf, 0)))
	if err := k.LoadString(routesProgram); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, stmt := range []string{
		"retrieve reachable(X, Y).",
		"retrieve reachable(X, Y) where X = la or X = dal.",
		"explain reachable(la, ny).",
		"describe reachable(X, Y).",
	} {
		if _, err := k.ExecStringContext(ctx, stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	stopped := ContextWithLimits(ctx, governor.Limits{MaxFacts: 5})
	var le *governor.LimitError
	if _, err := k.ExecStringContext(stopped, "retrieve reachable(X, Y)."); !errors.As(err, &le) {
		t.Fatalf("governed retrieve: err = %v, want a limit stop", err)
	}

	sums := map[string]int64{}
	lines := logLines(t, &buf)
	if len(lines) != 5 {
		t.Fatalf("%d log lines, want 5", len(lines))
	}
	for _, rec := range lines {
		for key, v := range rec {
			if f, ok := v.(float64); ok {
				sums[key] += int64(f)
			}
		}
	}
	metric := map[string]int64{}
	for _, p := range reg.Snapshot() {
		metric[p.Name] += int64(p.Value)
	}
	for field, family := range map[string]string{
		"facts":              "kdb_facts_derived_total",
		"lookups":            "kdb_lookups_total",
		"iterations":         "kdb_scc_iterations_total",
		"probes":             "kdb_storage_probes_total",
		"candidates":         "kdb_storage_candidates_total",
		"index_builds":       "kdb_storage_index_builds_total",
		"provenance_entries": "kdb_provenance_entries_total",
		"describe_nodes":     "kdb_describe_nodes_total",
		"explain_nodes":      "kdb_explain_nodes_total",
	} {
		if sums[field] != metric[family] {
			t.Errorf("log %s sums to %d, but %s = %d", field, sums[field], family, metric[family])
		}
	}
	for _, field := range []string{"facts", "iterations", "describe_nodes", "explain_nodes"} {
		if sums[field] == 0 {
			t.Errorf("no query logged %s", field)
		}
	}
}
