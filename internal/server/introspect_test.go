package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kdb/internal/obs"
)

// getJSON fetches one GET route and decodes the JSON response.
func getJSON(t *testing.T, ts *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: decoding response: %v", path, err)
	}
	return resp.StatusCode, out
}

// denseClosure builds a program whose transitive closure is expensive
// enough for cancellation tests to land mid-evaluation.
func denseClosure(n int) string {
	var prog strings.Builder
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				fmt.Fprintf(&prog, "edge(n%d, n%d).\n", i, j)
			}
		}
	}
	prog.WriteString("path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\n")
	return prog.String()
}

// TestActivityLifecycle is the acceptance test of the live activity
// layer: an in-flight query appears in /v1/debug/activity, canceling it
// through the endpoint fails the request with 499, and the entry is
// gone once the evaluation unwinds.
func TestActivityLifecycle(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	if code, out := post(t, ts, "/v1/kb/alpha/load", map[string]any{"program": denseClosure(90)}); code != http.StatusOK {
		t.Fatalf("load: %d %v", code, out)
	}

	type result struct {
		code int
		body map[string]any
	}
	done := make(chan result, 1)
	go func() {
		code, out := post(t, ts, "/v1/kb/alpha/retrieve", map[string]any{"stmt": "retrieve path(X, Y)."})
		done <- result{code, out}
	}()

	// The query must appear in the activity listing while it runs.
	var id float64
	deadline := time.Now().Add(5 * time.Second)
	for id == 0 && time.Now().Before(deadline) {
		select {
		case r := <-done:
			t.Skipf("query finished (%d) before it was observed in flight", r.code)
		default:
		}
		_, out := getJSON(t, ts, "/v1/debug/activity")
		if qs, _ := out["queries"].([]any); len(qs) > 0 {
			q := qs[0].(map[string]any)
			if q["statement"] != "retrieve path(X, Y)." || q["kind"] != "retrieve" || q["tenant"] != "alpha" {
				t.Errorf("activity entry = %v", q)
			}
			id, _ = q["id"].(float64)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if id == 0 {
		t.Fatal("query never appeared in /v1/debug/activity")
	}

	// Cancel it through the debug endpoint: the request fails with 499.
	code, out := post(t, ts, fmt.Sprintf("/v1/debug/activity/%d/cancel", int(id)), nil)
	if code != http.StatusOK {
		t.Fatalf("cancel: %d %v", code, out)
	}
	select {
	case r := <-done:
		if r.code != statusClientClosedRequest {
			t.Errorf("canceled query returned %d, want %d (%v)", r.code, statusClientClosedRequest, r.body)
		} else if got := errCode(t, r.body); got != "canceled" {
			t.Errorf("error code = %q, want canceled", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled query did not return")
	}

	// The entry must disappear once the evaluation unwinds.
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_, out := getJSON(t, ts, "/v1/debug/activity")
		if qs, _ := out["queries"].([]any); len(qs) == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("canceled query still listed after completion")
}

// TestActivityCancelUnknown: canceling a query that is not in flight is
// a structured 404.
func TestActivityCancelUnknown(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	code, out := post(t, ts, "/v1/debug/activity/12345/cancel", nil)
	if code != http.StatusNotFound || errCode(t, out) != "not-found" {
		t.Errorf("cancel unknown = %d %v, want 404 not-found", code, out)
	}
	code, out = getJSON(t, ts, "/v1/debug/activity")
	if code != http.StatusOK {
		t.Fatalf("activity: %d %v", code, out)
	}
	if qs, ok := out["queries"].([]any); !ok || len(qs) != 0 {
		t.Errorf("idle activity = %v, want empty array", out["queries"])
	}
}

// TestProfileRoute: the profile statement runs on its own route and
// returns both the answers and the structured per-rule rows.
func TestProfileRoute(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	prog := "edge(a, b). edge(b, c).\npath(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\n"
	if code, out := post(t, ts, "/v1/kb/alpha/load", map[string]any{"program": prog}); code != http.StatusOK {
		t.Fatalf("load: %d %v", code, out)
	}
	code, out := post(t, ts, "/v1/kb/alpha/profile", map[string]any{"stmt": "profile path(a, Y)."})
	if code != http.StatusOK {
		t.Fatalf("profile: %d %v", code, out)
	}
	if out["kind"] != "profile" {
		t.Errorf("kind = %v, want profile", out["kind"])
	}
	if got := answers(out); len(got) != 2 {
		t.Errorf("answers = %v, want 2 atoms", got)
	}
	prof, ok := out["profile"].(map[string]any)
	if !ok {
		t.Fatalf("response has no profile object: %v", out)
	}
	rows, _ := prof["rows"].([]any)
	if len(rows) == 0 {
		t.Fatal("profile has no rows")
	}
	var sourceRules int
	for _, r := range rows {
		if r.(map[string]any)["synthetic"] != true {
			sourceRules++
		}
	}
	if sourceRules != 2 {
		t.Errorf("profile has %d source-rule rows, want 2", sourceRules)
	}
	// Route/statement family mismatch stays a 400.
	code, out = post(t, ts, "/v1/kb/alpha/retrieve", map[string]any{"stmt": "profile path(a, Y)."})
	if code != http.StatusBadRequest || errCode(t, out) != "bad-request" {
		t.Errorf("profile on /retrieve = %d %v, want 400", code, out)
	}
}

// TestTraceparentAdoption: a valid W3C traceparent is echoed on the
// response and its trace id reaches the query log; a malformed one is
// ignored.
func TestTraceparentAdoption(t *testing.T) {
	var logBuf bytes.Buffer
	cfg := Config{
		Tracer:   obs.NewTracer(),
		QueryLog: obs.NewQueryLog(&logBuf, 0),
	}
	_, ts, _ := newTestServer(t, cfg)
	if code, out := post(t, ts, "/v1/kb/alpha/load", map[string]any{"program": "p(a)."}); code != http.StatusOK {
		t.Fatalf("load: %d %v", code, out)
	}

	const header = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	body, _ := json.Marshal(map[string]any{"stmt": "retrieve p(X)."})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/kb/alpha/retrieve", bytes.NewReader(body))
	req.Header.Set("traceparent", header)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("Traceparent"); got != header {
		t.Errorf("response traceparent = %q, want %q", got, header)
	}
	// The adopted id (low 64 bits of the trace id) must be the one the
	// query log records.
	var rec struct {
		TraceID uint64 `json:"trace_id"`
	}
	if err := json.Unmarshal(logBuf.Bytes(), &rec); err != nil {
		t.Fatalf("query log: %v (%q)", err, logBuf.String())
	}
	if rec.TraceID != 0xa3ce929d0e0e4736 {
		t.Errorf("query log trace id = %#x, want %#x", rec.TraceID, uint64(0xa3ce929d0e0e4736))
	}

	// A malformed header is ignored, not echoed.
	req, _ = http.NewRequest("POST", ts.URL+"/v1/kb/alpha/retrieve", bytes.NewReader(body))
	req.Header.Set("traceparent", "zz-bogus")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("Traceparent"); got != "" {
		t.Errorf("malformed traceparent echoed back: %q", got)
	}
}

// TestHealthzBuildInfo: the liveness body identifies the running build.
func TestHealthzBuildInfo(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{})
	code, out := getJSON(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d %v", code, out)
	}
	build, ok := out["build"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no build section: %v", out)
	}
	if v, _ := build["go_version"].(string); v == "" {
		t.Errorf("build info missing go_version: %v", build)
	}
	// The same identity is on the metrics registry as kdb_build_info.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "kdb_build_info{") {
		t.Error("registry exposition missing kdb_build_info")
	}
}
