package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"kdb"
)

// Serve workload sizes: the stored relation read by point lookups, the
// share of writes, and the closed-loop clients, one connection each.
const (
	serveItems      = 2000
	serveWriteShare = 0.2
	serveClients    = 2
	serveTenant     = "kv"
	serveReadStmt   = "retrieve item($1, V)."
)

// workDir holds the durable tenant roots; it lies inside the checkout
// the benchmark runs from, next to its build.
const workDir = ".bench_build/kdbbench-work"

// serveInstance is an in-process `kdb serve` over a durable tenant under
// a temporary root, with the clients' shared view of which keys hold
// which values: every acknowledged write becomes readable.
type serveInstance struct {
	root   string
	srv    *kdb.Server
	hs     *http.Server
	served chan error
	base   string
	reg    *kdb.MetricsRegistry
	seed   int64
	layers *layerStats
	qlog   *queryLogSink

	mu     sync.Mutex
	keys   []string
	values map[string]string
	writes int // fresh keys issued
	runs   int // closed-loop runs, so every run's clients get new seeds
}

// serveInput is the tenant's stored relation: its program text and the
// value the oracle expects under each key.
type serveInput struct {
	program string
	keys    []string
	values  map[string]string
	seed    int64
}

func serveInputs(seed int64) serveInput {
	rng := rand.New(rand.NewSource(seed))
	in := serveInput{values: map[string]string{}, seed: seed}
	var prog strings.Builder
	for _, i := range rng.Perm(serveItems) {
		k, v := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", rng.Intn(1_000_000))
		in.keys = append(in.keys, k)
		in.values[k] = v
		fmt.Fprintf(&prog, "item(%s, %s).\n", k, v)
	}
	in.program = prog.String()
	return in
}

// setupServe starts a server on a fresh root and loads the tenant's
// stored relation through HTTP, then checkpoints it so the run starts
// from a snapshot with an empty WAL.
func setupServe(in serveInput, traced bool) (*serveInstance, setupTimes, error) {
	var st setupTimes
	s := &serveInstance{seed: in.seed, keys: slices.Clone(in.keys), values: maps.Clone(in.values), reg: kdb.NewMetricsRegistry()}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, st, err
	}
	root, err := os.MkdirTemp(workDir, "serve-")
	if err != nil {
		return nil, st, err
	}
	s.root = root
	cfg := kdb.ServerConfig{
		Root:     root,
		Registry: s.reg,
		// The admission bound and wall-time ceiling of `kdb serve`'s
		// defaults, so shed load shows the way it would in production.
		MaxInFlight: 256,
		Ceiling:     kdb.QueryLimits{MaxWall: 5 * time.Second},
	}
	if traced {
		t0 := time.Now()
		p, err := kdb.ParseProgram(in.program)
		if err != nil {
			s.close()
			return nil, st, err
		}
		st.parse = time.Since(t0)
		t0 = time.Now()
		if rep := kdb.Analyze(p); rep.HasErrors() {
			s.close()
			return nil, st, fmt.Errorf("generated program: %v", rep.Errors())
		}
		st.analyze = time.Since(t0)
		s.layers, s.qlog = newLayerStats(), &queryLogSink{}
		cfg.Tracer = kdb.NewTracer()
		cfg.Tracer.OnFinish(s.layers.add)
		cfg.QueryLog = kdb.NewQueryLog(s.qlog, 0)
	}
	if s.srv, err = kdb.NewServer(cfg); err != nil {
		s.close()
		return nil, st, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, st, err
	}
	s.base = "http://" + ln.Addr().String() + "/v1/kb/" + serveTenant
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()

	t0 := time.Now()
	c := newClient()
	defer c.CloseIdleConnections()
	for _, step := range []struct{ route, body string }{
		{"/load", mustJSON(map[string]string{"program": in.program})},
		{"/checkpoint", "{}"},
	} {
		if _, err := post(c, s.base+step.route, step.body); err != nil {
			s.close()
			return nil, st, fmt.Errorf("tenant %s: %w", step.route, err)
		}
	}
	st.load = time.Since(t0)
	return s, st, nil
}

// newClient returns an HTTP client that keeps one connection open.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
}

// post sends one JSON request without retrying: a refusal (429 or 503)
// is reported as it happened, so shed load counts against the run.
func post(c *http.Client, url, body string) ([]byte, error) {
	resp, err := c.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of strings are encoded
	}
	return string(b)
}

// run drives the clients in a closed loop until the deadline.
func (s *serveInstance) run(ctx context.Context, until time.Time, minOps int, rec *recorder) error {
	s.runs++
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s.client(ctx, id, until, minOps/serveClients, rec)
		}(c)
	}
	wg.Wait()
	return nil
}

func (s *serveInstance) client(ctx context.Context, id int, until time.Time, minOps int, rec *recorder) {
	c := newClient()
	defer c.CloseIdleConnections()
	rng := rand.New(rand.NewSource(s.seed*1000 + int64(s.runs*serveClients+id)))
	for n := 0; (time.Now().Before(until) || n < minOps) && ctx.Err() == nil; n++ {
		if rng.Float64() < serveWriteShare {
			s.write(c, rng, rec)
		} else {
			s.read(c, rng, rec)
		}
	}
}

func (s *serveInstance) read(c *http.Client, rng *rand.Rand, rec *recorder) {
	s.mu.Lock()
	k := s.keys[rng.Intn(len(s.keys))]
	want := "item(" + k + ", " + s.values[k] + ")"
	s.mu.Unlock()
	body := `{"stmt":"` + serveReadStmt + `","args":["` + k + `"]}`
	start := time.Now()
	b, err := post(c, s.base+"/retrieve", body)
	d := time.Since(start)
	if err != nil {
		rec.fail(opRead, err.Error())
		return
	}
	var resp struct {
		Answers []string `json:"answers"`
	}
	if err := json.Unmarshal(b, &resp); err != nil {
		rec.wrongAnswer(fmt.Sprintf("read %s: %v", k, err))
		return
	}
	if len(resp.Answers) != 1 || resp.Answers[0] != want {
		rec.wrongAnswer(fmt.Sprintf("read %s: got %q, want [%q]", k, resp.Answers, want))
		return
	}
	rec.ok(opRead, d, counts{answers: 1})
}

// write asserts a fact under a key no one has written, and publishes
// the key for reads once the server acknowledged it.
func (s *serveInstance) write(c *http.Client, rng *rand.Rand, rec *recorder) {
	s.mu.Lock()
	s.writes++
	k := fmt.Sprintf("w%d", s.writes)
	s.mu.Unlock()
	v := fmt.Sprintf("v%d", rng.Intn(1_000_000))
	body := `{"fact":"item(` + k + `, ` + v + `)"}`
	start := time.Now()
	_, err := post(c, s.base+"/assert", body)
	d := time.Since(start)
	if err != nil {
		rec.fail(opWrite, err.Error())
		return
	}
	s.mu.Lock()
	s.keys = append(s.keys, k)
	s.values[k] = v
	s.mu.Unlock()
	rec.ok(opWrite, d, counts{})
}

func (s *serveInstance) layerStats() *layerStats { return s.layers }

// close stops the HTTP server and waits for its goroutine, closes the
// tenants, and removes the temporary root.
func (s *serveInstance) close() error {
	var errs []error
	if s.hs != nil {
		errs = append(errs, s.hs.Close())
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if s.srv != nil {
		errs = append(errs, s.srv.Close())
	}
	errs = append(errs, os.RemoveAll(s.root))
	return errors.Join(errs...)
}

// serveSnap is the registry's server-side numbers at one instant; the
// timed phase reports the difference of two.
type serveSnap struct {
	handler, wal         kdb.MetricPoint // request and WAL-append histograms
	walBytes, hits, shed float64
	misses, iterations   float64
}

func (s *serveInstance) snap() serveSnap {
	var n serveSnap
	for _, p := range s.reg.Snapshot() {
		switch {
		case p.Name == "kdb_server_request_seconds" && p.Labels["route"] == "retrieve":
			n.handler = p
		case p.Name == "kdb_wal_append_seconds":
			n.wal = p
		case p.Name == "kdb_wal_append_bytes_total":
			n.walBytes = p.Value
		case p.Name == "kdb_server_prepared_total" && p.Labels["result"] == "hit":
			n.hits = p.Value
		case p.Name == "kdb_server_prepared_total" && p.Labels["result"] == "miss":
			n.misses = p.Value
		case p.Name == "kdb_server_shed_total":
			n.shed = p.Value
		case p.Name == "kdb_scc_iterations_total":
			n.iterations = p.Value
		}
	}
	return n
}

// layerMetrics reports the server-side layer numbers of the timed phase
// that ran between snapshots a and b, given its evaluation counts, the
// clients' count of writes and their mean read round trip in ms.
func (a serveSnap) layerMetrics(b serveSnap, c counts, writes int, rttMS float64, out map[string]float64) {
	reads := max(b.handler.Count-a.handler.Count, 1)
	handlerMean := (b.handler.Sum - a.handler.Sum) / float64(reads) * 1000
	out["server.handler_ms_mean"] = handlerMean
	out["server.handler_ms_p50"] = histogramP50(a.handler, b.handler)
	out["server.http_overhead_ms"] = rttMS - handlerMean
	out["server.prepared_hit_ratio"] = (b.hits - a.hits) / max(b.hits-a.hits+b.misses-a.misses, 1)
	out["server.shed_total"] = b.shed - a.shed
	out["storage.wal_append_ms_mean"] = (b.wal.Sum - a.wal.Sum) / float64(max(b.wal.Count-a.wal.Count, 1)) * 1000
	out["storage.wal_append_ms_p50"] = histogramP50(a.wal, b.wal)
	out["storage.wal_bytes_per_write"] = (b.walBytes - a.walBytes) / float64(max(writes, 1))
	c.iterations = int64(b.iterations - a.iterations)
	c.perOp(int(reads), out)
}

// histogramP50 estimates, in milliseconds, the median of the samples a
// histogram gained between snapshots a and b, by linear interpolation
// inside the bucket that holds it.
func histogramP50(a, b kdb.MetricPoint) float64 {
	total := b.Count - a.Count
	if total <= 0 || len(a.Buckets) != len(b.Buckets) {
		return 0
	}
	half := float64(total) / 2
	lo, below := 0.0, int64(0)
	for i, bk := range b.Buckets {
		cum := bk.Count - a.Buckets[i].Count
		if float64(cum) >= half {
			hi := bk.LE
			if math.IsInf(hi, 1) { // the overflow bucket has no upper edge
				hi = lo
			}
			frac := (half - float64(below)) / float64(max(cum-below, 1))
			return (lo + (hi-lo)*frac) * 1000
		}
		lo, below = bk.LE, cum
	}
	return 0
}

// queryLogSink reads kdb's structured query log in memory: its records
// carry the same evaluation counts a library caller reads from
// KB.LastStats, which the server keeps per tenant.
type queryLogSink struct {
	mu sync.Mutex
	c  counts
}

func (q *queryLogSink) Write(p []byte) (int, error) {
	var rec kdb.QueryLogRecord
	if err := json.Unmarshal(bytes.TrimSpace(p), &rec); err != nil {
		return 0, fmt.Errorf("query log line: %w", err)
	}
	q.mu.Lock()
	q.c.facts += rec.Facts
	q.c.lookups += rec.Lookups
	q.c.probes += rec.Probes
	q.c.fullScans += rec.FullScans
	q.c.candidates += rec.Candidates
	q.c.indexBuilds += rec.IndexBuilds
	q.mu.Unlock()
	return len(p), nil
}

// take returns the counts logged since the last take.
func (q *queryLogSink) take() counts {
	q.mu.Lock()
	defer q.mu.Unlock()
	c := q.c
	q.c = counts{}
	return c
}
