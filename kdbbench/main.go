// Command kdbbench is the repository's benchmark. It drives kdb only
// through its public API (ParseQuery, LoadString, ExecContext,
// ExecResult.String, LastStats, the metrics registry, NewServer and
// HTTP) over four seeded workloads, checks every answer against an
// oracle, and prints each metric by name with its unit. The last line of
// standard output is one JSON object: the result. See README.md.
//
//	kdbbench --workload closure --seed 1 --seconds 25 --trace 0
//	kdbbench compare OLD.jsonl NEW.jsonl
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"kdb"
)

// Run shape. Set-up is repeated, at least setupRuns times and until the
// repeats took setupSeconds (at most maxSetupRuns), and its median is
// reported, so one slow set-up does not decide setup_s. The timed phase
// runs at least minOps operations, so that latency_p90_ms has minBeyond
// samples beyond it even on the slowest workload.
const (
	setupRuns    = 5
	maxSetupRuns = 51
	setupSeconds = 1.0
	minOps       = 100
	warmSeconds  = 0.5
	warmOps      = 2
)

// instance is one set-up copy of a workload, ready to run operations.
type instance interface {
	// run performs closed-loop operations until the deadline has passed
	// and at least minOps were attempted, recording each in rec.
	run(ctx context.Context, until time.Time, minOps int, rec *recorder) error
	// layerStats returns the span aggregation of a traced instance.
	layerStats() *layerStats
	close() error
}

// setupTimes splits one set-up. parse and analyze are measured only in
// a traced run, on their own, before the load that repeats them.
type setupTimes struct {
	parse, analyze, load time.Duration
}

// workload generates a run's inputs and their oracle from the seed once
// (the benchmark's own work, not timed), and returns the set-up that
// builds an instance over them, which is timed.
type workload struct {
	name string
	gen  func(seed int64) (setupFunc, error)
}

type setupFunc func(traced bool) (instance, setupTimes, error)

var workloads = []workload{
	{"closure", func(seed int64) (setupFunc, error) {
		return libSetup(closureQueries(seed, 200)), nil
	}},
	{"bound", func(seed int64) (setupFunc, error) {
		return libSetup(boundQueries(seed, 100, 5)), nil
	}},
	{"knowledge", func(seed int64) (setupFunc, error) {
		q, err := knowledgeQueries(seed)
		return libSetup(q), err
	}},
	{"serve", func(seed int64) (setupFunc, error) {
		in := serveInputs(seed)
		return func(traced bool) (instance, setupTimes, error) { return setupServe(in, traced) }, nil
	}},
}

func libSetup(q libQueries) setupFunc {
	return func(traced bool) (instance, setupTimes, error) { return setupLib(q, traced) }
}

// Operation kinds: a query, or a write (serve's asserts).
const (
	opRead = iota
	opWrite
)

// counts are the evaluation and storage work of finished operations.
type counts struct {
	facts, lookups, iterations                 int64
	probes, candidates, fullScans, indexBuilds int64
	answers, describeNodes                     int64
}

func (c *counts) addEval(st *kdb.EvalStats, answers int) {
	c.facts += int64(st.Facts)
	c.lookups += st.Lookups
	c.iterations += int64(st.Passes)
	for _, comp := range st.Components {
		c.iterations += int64(comp.Iterations)
	}
	c.probes += st.Probes
	c.candidates += st.Candidates
	c.fullScans += st.FullScans
	c.indexBuilds += st.IndexBuilds
	c.answers += int64(answers)
}

func (c *counts) add(o counts) {
	c.facts += o.facts
	c.lookups += o.lookups
	c.iterations += o.iterations
	c.probes += o.probes
	c.candidates += o.candidates
	c.fullScans += o.fullScans
	c.indexBuilds += o.indexBuilds
	c.answers += o.answers
	c.describeNodes += o.describeNodes
}

// perOp reports the counts as per-layer metrics over ops operations.
func (c counts) perOp(ops int, out map[string]float64) {
	n := float64(max(ops, 1))
	out["eval.facts_per_op"] = float64(c.facts) / n
	out["eval.lookups_per_op"] = float64(c.lookups) / n
	out["eval.iterations_per_op"] = float64(c.iterations) / n
	out["eval.facts_per_answer"] = ratio(c.facts, c.answers)
	out["storage.probes_per_op"] = float64(c.probes) / n
	out["storage.candidates_per_probe"] = ratio(c.candidates, c.probes)
	out["storage.full_scan_ratio"] = ratio(c.fullScans, c.probes)
	out["storage.index_builds_per_op"] = float64(c.indexBuilds) / n
	out["core.describe_nodes_per_op"] = float64(c.describeNodes) / n
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// recorder collects the outcome of every operation of one phase. It is
// safe for concurrent clients.
type recorder struct {
	mu        sync.Mutex
	lat       [2][]float64 // ms by op kind; a failed op is +Inf
	attempted int
	failed    int
	wrong     int
	firstBad  string
	writes    int
	c         counts
}

func (r *recorder) ok(kind int, d time.Duration, c counts) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.lat[kind] = append(r.lat[kind], ms(d))
	if kind == opWrite {
		r.writes++
	}
	r.c.add(c)
}

// fail records an operation that returned an error or was refused: it
// counts as failed and as missing any latency limit.
func (r *recorder) fail(kind int, msg string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	r.lat[kind] = append(r.lat[kind], math.Inf(1))
	if r.firstBad == "" {
		r.firstBad = msg
	}
}

// wrongAnswer records an operation whose answer failed its oracle. The
// first wrong answer is the one reported, ahead of any refusal.
func (r *recorder) wrongAnswer(msg string) {
	r.mu.Lock()
	if r.wrong == 0 {
		r.firstBad = msg
	}
	r.wrong++
	r.mu.Unlock()
	r.fail(opRead, msg)
}

func (r *recorder) all() []float64 {
	return append(append([]float64(nil), r.lat[opRead]...), r.lat[opWrite]...)
}

// result is one run's outcome. Metrics holds every metric measured;
// the printed result line keeps those BENCHMARK.json lists for the mode.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "kdbbench compare:", err)
			os.Exit(2)
		}
		return
	}
	name := flag.String("workload", "", "workload: closure, bound, knowledge or serve")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 25, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := flag.String("out", "", "append the full result as one JSON line to this file")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if w.name == "serve" {
		// The clients and the server share this process. On one P a
		// round trip is handed from goroutine to goroutine inside the
		// Go scheduler. With two Ps it woke a thread on the other
		// core, a delay set by whatever else the host ran, and the
		// median spread by a third from run to run.
		runtime.GOMAXPROCS(1)
	}
	ctx := context.Background()
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(ctx, w, *seed, *seconds)
	} else {
		res, err = runPlain(ctx, w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "kdbbench %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := report(os.Stdout, res, *out); err != nil {
		fmt.Fprintf(os.Stderr, "kdbbench %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// setupMedian sets the workload up repeatedly, keeps the last instance,
// and returns the median of each set-up measure.
func setupMedian(setup setupFunc, traced bool) (instance, map[string]float64, error) {
	var total, parse, analyze, load []float64
	var inst instance
	spent := 0.0
	for i := 0; i < setupRuns || (spent < setupSeconds && i < maxSetupRuns); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, err
			}
			inst = nil
		}
		runtime.GC()
		t0 := time.Now()
		next, st, err := setup(traced)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		inst = next
		d := time.Since(t0).Seconds()
		spent += d
		total = append(total, d)
		parse = append(parse, st.parse.Seconds())
		analyze = append(analyze, st.analyze.Seconds())
		load = append(load, st.load.Seconds())
	}
	return inst, map[string]float64{
		"setup_s":                median(total),
		"parser.program_parse_s": median(parse),
		"analysis.analyze_s":     median(analyze),
		"kb.load_s":              median(load),
	}, nil
}

// warm runs a short untimed phase, so lazy set-up (the describer, the
// prepared statement, the connections) is done before timing. Its
// answers are checked like any other.
func warm(ctx context.Context, inst instance) (*recorder, error) {
	rec := &recorder{}
	err := inst.run(ctx, time.Now().Add(time.Duration(warmSeconds*float64(time.Second))), warmOps, rec)
	return rec, err
}

// phase runs one timed phase and returns its recorder, wall time and
// the allocation counters' change over it.
func phase(ctx context.Context, inst instance, seconds float64, min int) (*recorder, float64, memSample, error) {
	runtime.GC()
	rec := &recorder{}
	m0 := readMem()
	t0 := time.Now()
	err := inst.run(ctx, t0.Add(time.Duration(seconds*float64(time.Second))), min, rec)
	wall := time.Since(t0).Seconds()
	m1 := readMem()
	return rec, wall, memSample{m1.allocBytes - m0.allocBytes, m1.allocObjects - m0.allocObjects, m1.gcCycles - m0.gcCycles}, err
}

// runPlain is the untraced run: it measures every end-to-end metric.
func runPlain(ctx context.Context, w *workload, seed int64, seconds float64) (res *result, err error) {
	gen, err := w.gen(seed)
	if err != nil {
		return nil, err
	}
	inst, setup, err := setupMedian(gen, false)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := inst.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	heap := liveHeapMB()
	wr, err := warm(ctx, inst)
	if err != nil {
		return nil, err
	}
	rec, wall, mem, err := phase(ctx, inst, seconds, minOps)
	if err != nil {
		return nil, err
	}
	res = newResult(w, seed, 0, rec, wr)
	m := res.Metrics
	m["setup_s"] = setup["setup_s"]
	m["setup_heap_mb"] = heap
	n := float64(max(rec.attempted, 1))
	m["ops_per_s"] = float64(rec.attempted) / wall
	m["alloc_bytes_per_op"] = float64(mem.allocBytes) / n
	m["allocs_per_op"] = float64(mem.allocObjects) / n
	m["error_ratio"] = float64(rec.failed) / n
	all := rec.all()
	m["latency_p50_ms"] = median(all)
	if v, ok := tail(all, 0.90); ok {
		m["latency_p90_ms"] = v
	}
	if w.name == "serve" {
		if v, ok := tail(all, 0.99); ok {
			m["latency_p99_ms"] = v
		}
		m["read_p50_ms"] = median(rec.lat[opRead])
		m["write_p50_ms"] = median(rec.lat[opWrite])
	}
	return res, nil
}

// runTraced is the traced run. It first runs half the time untraced and
// then half on a traced instance (kdb's tracer attached, the benchmark's
// own spans around each call), reports self time per layer, the work
// counts, and the tracing overhead: traced minus untraced median.
func runTraced(ctx context.Context, w *workload, seed int64, seconds float64) (res *result, err error) {
	gen, err := w.gen(seed)
	if err != nil {
		return nil, err
	}
	plain, _, err := gen(false)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	plainWarm, err := warm(ctx, plain)
	var plainRec *recorder
	var plainMem memSample
	if err == nil {
		plainRec, _, plainMem, err = phase(ctx, plain, seconds/2, 1)
	}
	if cerr := plain.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	inst, setup, err := setupMedian(gen, true)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := inst.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	tracedWarm, err := warm(ctx, inst)
	if err != nil {
		return nil, err
	}
	ls := inst.layerStats()
	ls.reset()
	si, isServe := inst.(*serveInstance)
	var before serveSnap
	if isServe {
		before = si.snap()
		si.qlog.take()
	}
	rec, _, _, err := phase(ctx, inst, seconds/2, 1)
	if err != nil {
		return nil, err
	}
	res = newResult(w, seed, 1, rec, plainWarm, plainRec, tracedWarm)
	m := res.Metrics
	for _, k := range []string{"parser.program_parse_s", "analysis.analyze_s", "kb.load_s"} {
		m[k] = setup[k]
	}
	ls.metrics(m)
	m["trace.overhead_ms"] = median(rec.all()) - median(plainRec.all())
	// Tracing allocates, so GC work is read from the untraced half.
	m["runtime.gc_cycles_per_op"] = float64(plainMem.gcCycles) / float64(max(plainRec.attempted, 1))
	if isServe {
		reads := rec.lat[opRead]
		var sum float64
		for _, v := range reads {
			sum += v
		}
		c := si.qlog.take()
		c.answers = rec.c.answers
		before.layerMetrics(si.snap(), c, rec.writes, sum/float64(max(len(reads), 1)), m)
	} else {
		rec.c.perOp(rec.attempted, m)
		m["storage.wal_bytes_per_write"] = 0
		m["server.prepared_hit_ratio"] = 0
		m["server.shed_total"] = 0
	}
	if err := ls.writeChrome(fmt.Sprintf(".bench_build/kdbbench-trace-%s.json", w.name)); err != nil {
		return nil, err
	}
	return res, nil
}

// newResult starts a result from the timed phase's recorder. A wrong
// answer in any other phase of the run (warm-up, the untraced half of a
// traced run) makes the run incorrect too.
func newResult(w *workload, seed int64, trace int, rec *recorder, others ...*recorder) *result {
	res := &result{
		Workload:  w.name,
		Seed:      seed,
		Trace:     trace,
		Correct:   true,
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Metrics:   map[string]float64{},
	}
	for _, r := range append(others, rec) {
		if r.wrong > 0 {
			res.Correct = false
		}
		if r.firstBad != "" {
			fmt.Fprintf(os.Stderr, "kdbbench %s: first failed or wrong operation: %s\n", w.name, r.firstBad)
		}
	}
	return res
}

// report prints every metric by name with its unit, then the result
// line, and appends the full result to outPath when it is set.
func report(w *os.File, res *result, outPath string) error {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s seed %d trace %d: %d attempted, %d failed, correct %v\n",
		res.Workload, res.Seed, res.Trace, res.Attempted, res.Failed, res.Correct)
	for _, k := range names {
		def, _ := lookupMetric(k)
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", k, res.Metrics[k], def.Unit)
	}
	listed := endToEnd
	if res.Trace == 1 {
		listed = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	var missing []string
	for _, def := range listed {
		v, ok := res.Metrics[def.Name]
		if !ok {
			missing = append(missing, def.Name)
			continue
		}
		line.Metrics[def.Name] = value{finite(v), def.Unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if outPath != "" {
		if err := appendJSONLine(outPath, res); err != nil {
			return err
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// finite maps +Inf (a tail that landed on a failed operation) to the
// largest float, which JSON can carry and any bound flags as worse.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

func appendJSONLine(path string, res *result) error {
	m := map[string]float64{}
	for k, v := range res.Metrics {
		m[k] = finite(v)
	}
	r := *res
	r.Metrics = m
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(b, '\n'))
	return errors.Join(err, f.Close())
}
