package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"kdb/internal/governor"
	"kdb/internal/kb"
	"kdb/internal/obs"
)

// newTestServer builds a Server and an httptest front end; both are
// torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts, cfg.Registry
}

// post sends one JSON request and decodes the JSON response.
func post(t *testing.T, ts *httptest.Server, path string, body any) (int, map[string]any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
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

// errCode extracts the structured error code from a failing response.
func errCode(t *testing.T, out map[string]any) string {
	t.Helper()
	e, ok := out["error"].(map[string]any)
	if !ok {
		t.Fatalf("response has no error envelope: %v", out)
	}
	code, _ := e["code"].(string)
	return code
}

// answers extracts the answers array of a query response.
func answers(out map[string]any) []string {
	raw, _ := out["answers"].([]any)
	var got []string
	for _, a := range raw {
		got = append(got, a.(string))
	}
	return got
}

const teachingProgram = `
	student(ann, math, 3.9).
	student(bob, cs, 3.2).
	student(eve, cs, 3.8).
	takes(ann, databases).
	takes(bob, databases).
	honor(X) :- student(X, M, G), G > 3.7.
`

func TestQueryLifecycle(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})

	code, out := post(t, ts, "/v1/kb/alpha/load", map[string]any{"program": teachingProgram})
	if code != http.StatusOK {
		t.Fatalf("load: %d %v", code, out)
	}

	// A parameterized retrieve: first execution parses, second hits the
	// prepared cache.
	q := map[string]any{"stmt": "retrieve honor($1).", "args": []any{"ann"}}
	code, out = post(t, ts, "/v1/kb/alpha/retrieve", q)
	if code != http.StatusOK {
		t.Fatalf("retrieve: %d %v", code, out)
	}
	if got := answers(out); len(got) != 1 || got[0] != "honor(ann)" {
		t.Errorf("retrieve answers = %v", got)
	}
	if out["prepared"] != false {
		t.Errorf("first execution should be a cache miss, got %v", out["prepared"])
	}
	code, out = post(t, ts, "/v1/kb/alpha/retrieve", q)
	if code != http.StatusOK || out["prepared"] != true {
		t.Errorf("second execution should be a cache hit: %d %v", code, out)
	}

	// Describe and explain run on their own routes.
	code, out = post(t, ts, "/v1/kb/alpha/describe", map[string]any{"stmt": "describe honor(X)."})
	if code != http.StatusOK {
		t.Fatalf("describe: %d %v", code, out)
	}
	if got := answers(out); len(got) == 0 || !strings.Contains(got[0], "student") {
		t.Errorf("describe answers = %v", got)
	}
	code, out = post(t, ts, "/v1/kb/alpha/explain", map[string]any{"stmt": "explain honor(ann)."})
	if code != http.StatusOK {
		t.Fatalf("explain: %d %v", code, out)
	}
	if out["explanation"] == nil {
		t.Error("explain response has no explanation")
	}

	// Assert a fact for an existing predicate: visible immediately, and
	// the prepared statement stays valid (no schema change).
	code, out = post(t, ts, "/v1/kb/alpha/assert", map[string]any{"fact": "student(joe, math, 3.95)"})
	if code != http.StatusOK {
		t.Fatalf("assert: %d %v", code, out)
	}
	code, out = post(t, ts, "/v1/kb/alpha/retrieve", map[string]any{"stmt": "retrieve honor($1).", "args": []any{"joe"}})
	if code != http.StatusOK || out["prepared"] != true {
		t.Fatalf("retrieve after assert: %d %v (want a prepared hit — fact asserts must not invalidate)", code, out)
	}
	if got := answers(out); len(got) != 1 || got[0] != "honor(joe)" {
		t.Errorf("asserted fact not derivable: %v", got)
	}

	// Retract reports whether the fact was present.
	code, out = post(t, ts, "/v1/kb/alpha/retract", map[string]any{"fact": "takes(bob, databases)"})
	if code != http.StatusOK || out["removed"] != true {
		t.Errorf("retract: %d %v", code, out)
	}
	code, out = post(t, ts, "/v1/kb/alpha/retract", map[string]any{"fact": "takes(bob, databases)"})
	if code != http.StatusOK || out["removed"] == true {
		t.Errorf("second retract should remove nothing: %d %v", code, out)
	}
}

func TestPreparedInvalidationOnLoad(t *testing.T) {
	s, ts, reg := newTestServer(t, Config{})
	post(t, ts, "/v1/kb/alpha/load", map[string]any{"program": "p(a). p(b)."})

	q := map[string]any{"stmt": "retrieve p(X)."}
	post(t, ts, "/v1/kb/alpha/retrieve", q)
	if _, out := post(t, ts, "/v1/kb/alpha/retrieve", q); out["prepared"] != true {
		t.Fatalf("want a hit before the load: %v", out)
	}

	// Loading a program bumps the schema generation; the cached entry is
	// stale and must be re-validated.
	post(t, ts, "/v1/kb/alpha/load", map[string]any{"program": "q(X) :- p(X)."})
	if _, out := post(t, ts, "/v1/kb/alpha/retrieve", q); out["prepared"] != false {
		t.Fatalf("want a miss after the load: %v", out)
	}
	if _, out := post(t, ts, "/v1/kb/alpha/retrieve", q); out["prepared"] != true {
		t.Fatalf("want a hit after re-validation: %v", out)
	}

	hits := reg.Counter("kdb_server_prepared_total", "result", "hit").Value()
	misses := reg.Counter("kdb_server_prepared_total", "result", "miss").Value()
	if hits < 2 || misses < 2 {
		t.Errorf("prepared metrics: hits=%d misses=%d, want >= 2 each", hits, misses)
	}
	if n := s.prepared.Len(); n != 1 {
		t.Errorf("cache entries = %d, want 1 (stale entry replaced)", n)
	}
}

func TestErrorMapping(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{
		Ceiling: governor.Limits{MaxFacts: 50},
	})
	post(t, ts, "/v1/kb/alpha/load", map[string]any{"program": "p(a)."})

	code, out := post(t, ts, "/v1/kb/alpha/retrieve", map[string]any{"stmt": "retrieve p(."})
	if code != http.StatusBadRequest || errCode(t, out) != "parse" {
		t.Errorf("parse error: %d %v", code, out)
	}

	code, out = post(t, ts, "/v1/kb/NOPE/retrieve", map[string]any{"stmt": "retrieve p(X)."})
	if code != http.StatusNotFound || errCode(t, out) != "not-found" {
		t.Errorf("bad tenant name: %d %v", code, out)
	}

	code, out = post(t, ts, "/v1/kb/alpha/retrieve", map[string]any{"stmt": "describe p(X)."})
	if code != http.StatusBadRequest || errCode(t, out) != "bad-request" {
		t.Errorf("route mismatch: %d %v", code, out)
	}

	// An unsafe rule is rejected by the analyzer with diagnostics.
	code, out = post(t, ts, "/v1/kb/alpha/load", map[string]any{"program": "bad(X, Y) :- p(X)."})
	if code != http.StatusUnprocessableEntity || errCode(t, out) != "analysis" {
		t.Errorf("analysis error: %d %v", code, out)
	}
	if e := out["error"].(map[string]any); e["diagnostics"] == nil {
		t.Errorf("analysis error carries no diagnostics: %v", out)
	}

	// A derived-fact blowup breaches the server ceiling: structured 429.
	var prog strings.Builder
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&prog, "edge(n%d, n%d).\n", i, i+1)
		fmt.Fprintf(&prog, "edge(n%d, m%d).\n", i, i)
	}
	prog.WriteString("path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\n")
	if code, out := post(t, ts, "/v1/kb/alpha/load", map[string]any{"program": prog.String()}); code != http.StatusOK {
		t.Fatalf("load graph: %d %v", code, out)
	}
	code, out = post(t, ts, "/v1/kb/alpha/retrieve", map[string]any{"stmt": "retrieve path(X, Y)."})
	if code != http.StatusTooManyRequests || errCode(t, out) != "limit" {
		t.Fatalf("limit breach: %d %v", code, out)
	}
	lim := out["error"].(map[string]any)["limit"].(map[string]any)
	if lim["kind"] != "facts" || lim["max"] != float64(50) {
		t.Errorf("limit detail = %v", lim)
	}

	// A request may tighten but never loosen the ceiling.
	code, out = post(t, ts, "/v1/kb/alpha/retrieve", map[string]any{
		"stmt":   "retrieve path(X, Y).",
		"limits": map[string]any{"max_facts": 1000000},
	})
	if code != http.StatusTooManyRequests {
		t.Errorf("loosening the ceiling must not work: %d %v", code, out)
	}
	code, out = post(t, ts, "/v1/kb/alpha/retrieve", map[string]any{
		"stmt":   "retrieve path(X, Y).",
		"limits": map[string]any{"max_facts": 5},
	})
	if code != http.StatusTooManyRequests {
		t.Fatalf("tightened request: %d %v", code, out)
	}
	lim = out["error"].(map[string]any)["limit"].(map[string]any)
	if lim["max"] != float64(5) {
		t.Errorf("tightened limit detail = %v (want the request's bound)", lim)
	}
}

// TestCanceledClientStopsQuery verifies the request context reaches
// the query governor: when the client disconnects, the evaluation
// stops with a canceled reason, visible in the query metrics.
func TestCanceledClientStopsQuery(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{})

	// A dense transitive closure: expensive enough that cancellation
	// lands mid-evaluation.
	const n = 90
	var prog strings.Builder
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				fmt.Fprintf(&prog, "edge(n%d, n%d).\n", i, j)
			}
		}
	}
	prog.WriteString("path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\n")
	if code, out := post(t, ts, "/v1/kb/alpha/load", map[string]any{"program": prog.String()}); code != http.StatusOK {
		t.Fatalf("load: %d %v", code, out)
	}

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(map[string]any{"stmt": "retrieve path(X, Y)."})
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/kb/alpha/retrieve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		resp.Body.Close()
		t.Skip("query finished before the cancel landed; nothing to observe")
	}

	// The handler observes the canceled evaluation asynchronously from
	// the client's error; poll briefly for the metric.
	stops := reg.Counter("kdb_query_stops_total", "reason", "canceled")
	deadline := time.Now().Add(5 * time.Second)
	for stops.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if stops.Value() == 0 {
		t.Fatal("no canceled stop recorded: the client disconnect did not reach the governor")
	}
}

// TestConcurrentClients is the acceptance workload: 64 concurrent
// clients mixing retrieve, assert, and explain against two tenants of
// one serve process, with the race detector watching (the CI race job
// includes this package).
func TestConcurrentClients(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{})
	for _, tenant := range []string{"alpha", "beta"} {
		if code, out := post(t, ts, "/v1/kb/"+tenant+"/load",
			map[string]any{"program": fmt.Sprintf("owner(%s). p(seed). q(X) :- p(X).", tenant)}); code != http.StatusOK {
			t.Fatalf("load %s: %d %v", tenant, code, out)
		}
	}

	const clients = 64
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := "alpha"
			other := "beta"
			if c%2 == 1 {
				tenant, other = other, tenant
			}
			for i := 0; i < 8; i++ {
				switch i % 3 {
				case 0:
					code, out := post(t, ts, "/v1/kb/"+tenant+"/assert",
						map[string]any{"fact": fmt.Sprintf("p(c%d_%d)", c, i)})
					if code != http.StatusOK {
						errc <- fmt.Errorf("assert: %d %v", code, out)
						return
					}
				case 1:
					code, out := post(t, ts, "/v1/kb/"+tenant+"/retrieve",
						map[string]any{"stmt": "retrieve owner($1).", "args": []any{tenant}})
					if code != http.StatusOK {
						errc <- fmt.Errorf("retrieve: %d %v", code, out)
						return
					}
					if got := answers(out); len(got) != 1 {
						errc <- fmt.Errorf("tenant %s sees %v for its own owner fact", tenant, got)
						return
					}
					// Isolation: the other tenant's owner fact must not leak.
					code, out = post(t, ts, "/v1/kb/"+tenant+"/retrieve",
						map[string]any{"stmt": "retrieve owner($1).", "args": []any{other}})
					if code != http.StatusOK {
						errc <- fmt.Errorf("retrieve other: %d %v", code, out)
						return
					}
					if got := answers(out); len(got) != 0 {
						errc <- fmt.Errorf("tenant %s sees %s's facts: %v", tenant, other, got)
						return
					}
				case 2:
					code, out := post(t, ts, "/v1/kb/"+tenant+"/explain",
						map[string]any{"stmt": "explain q(seed)."})
					if code != http.StatusOK {
						errc <- fmt.Errorf("explain: %d %v", code, out)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// The parameterized retrieve repeats across clients: the prepared
	// cache must show hits on /metrics.
	if hits := reg.Counter("kdb_server_prepared_total", "result", "hit").Value(); hits == 0 {
		t.Error("no prepared-statement cache hits under the concurrent workload")
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), `kdb_server_prepared_total{result="hit"}`) {
		t.Error("/metrics does not expose the prepared-statement hit counter")
	}
	if !strings.Contains(string(text), `kdb_server_requests_total`) {
		t.Error("/metrics does not expose the request counter")
	}
}

func TestDurableTenantsAndEviction(t *testing.T) {
	root := t.TempDir()
	_, ts, reg := newTestServer(t, Config{Root: root, MaxOpenKBs: 2})

	for _, tenant := range []string{"a", "b", "c"} {
		code, out := post(t, ts, "/v1/kb/"+tenant+"/assert", map[string]any{"fact": "home(" + tenant + ")"})
		if code != http.StatusOK {
			t.Fatalf("assert %s: %d %v", tenant, code, out)
		}
	}
	// Opening c exceeded the bound: the LRU tenant (a) was evicted.
	if evicted := reg.Counter("kdb_server_evictions_total").Value(); evicted != 1 {
		t.Errorf("evictions = %d, want 1", evicted)
	}

	// The listing shows open and on-disk tenants.
	resp, err := http.Get(ts.URL + "/v1/kbs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		KBs []struct {
			Name string `json:"name"`
			Open bool   `json:"open"`
		} `json:"kbs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	open := make(map[string]bool)
	for _, e := range list.KBs {
		open[e.Name] = e.Open
	}
	if len(list.KBs) != 3 || open["a"] || !open["b"] || !open["c"] {
		t.Errorf("listing = %v", list.KBs)
	}

	// An evicted tenant reopens from its store: the fact survived.
	code, out := post(t, ts, "/v1/kb/a/retrieve", map[string]any{"stmt": "retrieve home(X)."})
	if code != http.StatusOK {
		t.Fatalf("reopen a: %d %v", code, out)
	}
	if got := answers(out); len(got) != 1 || got[0] != "home(a)" {
		t.Errorf("reopened tenant lost its fact: %v", got)
	}
}

func TestManagerOverloadAndClose(t *testing.T) {
	m := newManager(context.Background(), "", 1, 0, func(string) (*kb.KB, error) { return kb.New(), nil })
	_, release1, err := m.Acquire("one")
	if err != nil {
		t.Fatal(err)
	}
	// The only slot is pinned: a second tenant cannot open.
	if _, _, err := m.Acquire("two"); err != ErrOverloaded {
		t.Fatalf("busy server: err = %v, want ErrOverloaded", err)
	}
	release1()
	// Idle now: the second tenant evicts the first.
	_, release2, err := m.Acquire("two")
	if err != nil {
		t.Fatal(err)
	}
	release2()
	if got := m.Open(); len(got) != 1 || got[0] != "two" {
		t.Errorf("open tenants = %v", got)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Acquire("three"); err != errManagerClosed {
		t.Errorf("acquire after close: %v", err)
	}
}

func TestValidName(t *testing.T) {
	for _, name := range []string{"a", "tenant-1", "x_y", strings.Repeat("a", 64)} {
		if !validName(name) {
			t.Errorf("validName(%q) = false", name)
		}
	}
	for _, name := range []string{"", "A", "a.b", "a/b", "..", "a b", strings.Repeat("a", 65)} {
		if validName(name) {
			t.Errorf("validName(%q) = true", name)
		}
	}
}

// TestServeSpanParenting checks the server's "serve" root span adopts
// the KB's query span as a child, so one trace covers the whole
// request.
func TestServeSpanParenting(t *testing.T) {
	tracer := obs.NewTracer()
	var mu sync.Mutex
	var roots []*obs.Span
	tracer.OnFinish(func(sp *obs.Span) {
		mu.Lock()
		roots = append(roots, sp)
		mu.Unlock()
	})
	_, ts, _ := newTestServer(t, Config{Tracer: tracer})
	post(t, ts, "/v1/kb/alpha/load", map[string]any{"program": "p(a)."})
	if code, out := post(t, ts, "/v1/kb/alpha/retrieve", map[string]any{"stmt": "retrieve p(X)."}); code != http.StatusOK {
		t.Fatalf("retrieve: %d %v", code, out)
	}
	mu.Lock()
	defer mu.Unlock()
	var serve *obs.Span
	for _, r := range roots {
		if r.Name() == "serve" {
			serve = r
		}
	}
	if serve == nil {
		t.Fatalf("no serve root span finished (got %d roots)", len(roots))
	}
	var query *obs.Span
	for _, c := range serve.Children() {
		if c.Name() == "query" {
			query = c
		}
	}
	if query == nil {
		t.Fatal("serve span has no query child: the KB did not parent under the request span")
	}
}

func TestArgumentDecoding(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	post(t, ts, "/v1/kb/alpha/load", map[string]any{
		"program": `name(w1, "Ann Smith"). score(w1, 4).`,
	})
	// A quoted string constant needs the {"str": ...} form (or any
	// non-identifier shape); numbers pass as JSON numbers.
	code, out := post(t, ts, "/v1/kb/alpha/retrieve", map[string]any{
		"stmt": "retrieve name(X, $1).",
		"args": []any{map[string]any{"str": "Ann Smith"}},
	})
	if code != http.StatusOK {
		t.Fatalf("str arg: %d %v", code, out)
	}
	if got := answers(out); len(got) != 1 {
		t.Errorf("str arg answers = %v", got)
	}
	code, out = post(t, ts, "/v1/kb/alpha/retrieve", map[string]any{
		"stmt": "retrieve score(X, $1).",
		"args": []any{4},
	})
	if code != http.StatusOK {
		t.Fatalf("num arg: %d %v", code, out)
	}
	if got := answers(out); len(got) != 1 {
		t.Errorf("num arg answers = %v", got)
	}
	// A variable-shaped argument cannot be injected: "X" is not an
	// identifier-shaped symbol, so it becomes a string constant and
	// matches nothing (no accidental wildcard).
	code, out = post(t, ts, "/v1/kb/alpha/retrieve", map[string]any{
		"stmt": "retrieve score(X, $1).",
		"args": []any{"X"},
	})
	if code != http.StatusOK {
		t.Fatalf("injected var: %d %v", code, out)
	}
	if got := answers(out); len(got) != 0 {
		t.Errorf("variable-shaped argument behaved as a wildcard: %v", got)
	}
	// Bad argument arity is a 400.
	code, out = post(t, ts, "/v1/kb/alpha/retrieve", map[string]any{
		"stmt": "retrieve score(X, $1).",
	})
	if code != http.StatusBadRequest {
		t.Errorf("missing args: %d %v", code, out)
	}
	// A string the language cannot write (a rune no string literal
	// carries) is a 400, in either form; newlines and tabs are fine.
	for _, arg := range []any{"\x00", map[string]any{"str": "bell\a"}, "no\u00a0break"} {
		code, out = post(t, ts, "/v1/kb/alpha/retrieve", map[string]any{
			"stmt": "retrieve name(X, $1).", "args": []any{arg},
		})
		if code != http.StatusBadRequest {
			t.Errorf("unwritable string %q: %d %v", arg, code, out)
		}
	}
	code, out = post(t, ts, "/v1/kb/alpha/retrieve", map[string]any{
		"stmt": "retrieve name(X, $1).", "args": []any{"two\nlines\tand a tab"},
	})
	if code != http.StatusOK {
		t.Errorf("newline and tab: %d %v", code, out)
	}
}
