package main

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"kdb"
)

var update = flag.Bool("update", false, "rewrite testdata/knowledge.expected from kdb's current answers")

func TestGeneratorsDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		if a, b := chainGraph(seed, 20), chainGraph(seed, 20); !reflect.DeepEqual(a, b) {
			t.Errorf("chainGraph(%d) differs between calls", seed)
		}
		ga, ra := forestGraph(seed, 3, 2)
		gb, rb := forestGraph(seed, 3, 2)
		if !reflect.DeepEqual(ga, gb) || !slices.Equal(ra, rb) {
			t.Errorf("forestGraph(%d) differs between calls", seed)
		}
		if ga.program(seed) != gb.program(seed) {
			t.Errorf("graph program(%d) differs between calls", seed)
		}
		ha, hb := newHierarchy(seed), newHierarchy(seed)
		if ha.program != hb.program || !slices.Equal(ha.pool, hb.pool) {
			t.Errorf("newHierarchy(%d) differs between calls", seed)
		}
		if !slices.Equal(knowledgeMix(seed, 30, 100), knowledgeMix(seed, 30, 100)) {
			t.Errorf("knowledgeMix(%d) differs between calls", seed)
		}
	}
	if chainGraph(1, 20).program(1) == chainGraph(2, 20).program(2) {
		t.Error("chain program does not depend on the seed")
	}
	if newHierarchy(1).program == newHierarchy(2).program {
		t.Error("hierarchy program does not depend on the seed")
	}
}

func TestForestShape(t *testing.T) {
	g, roots := forestGraph(3, 100, 5)
	if len(g.edges) != 6200 || len(roots) != 100 {
		t.Fatalf("forest has %d edges and %d roots, want 6200 and 100", len(g.edges), len(roots))
	}
	if n := len(g.reach(roots[0])); n != 62 {
		t.Errorf("a root reaches %d nodes, want 62", n)
	}
}

// retrieve runs one statement on a fresh KB and returns its rendering.
func retrieve(t *testing.T, program, stmt string) string {
	t.Helper()
	k := kdb.New()
	if err := k.LoadString(program); err != nil {
		t.Fatal(err)
	}
	q, err := kdb.ParseQuery(stmt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := k.ExecContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return res.String()
}

func TestOracleAgreesWithKDB(t *testing.T) {
	chain := chainGraph(5, 6)
	if got, want := retrieve(t, chain.program(5), "retrieve path(X, Y)."), chain.pathAnswers(chain.nodes...); got != want {
		t.Errorf("chain closure:\nkdb:    %q\noracle: %q", got, want)
	}
	forest, roots := forestGraph(5, 3, 2)
	for _, r := range roots {
		if got, want := retrieve(t, forest.program(5), "retrieve path("+r+", Y)."), forest.pathAnswers(r); got != want {
			t.Errorf("forest from %s:\nkdb:    %q\noracle: %q", r, got, want)
		}
	}
	leaf := forest.edges[len(forest.edges)-1][1]
	if got := retrieve(t, forest.program(5), "retrieve path("+leaf+", Y)."); got != forest.pathAnswers(leaf) {
		t.Errorf("leaf %s: kdb says %q, oracle %q", leaf, got, forest.pathAnswers(leaf))
	}
}

func TestOracleCatchesWrongAnswer(t *testing.T) {
	g := chainGraph(1, 3)
	want := g.pathAnswers(g.nodes...)
	lines := strings.Split(want, "\n")
	if compareRendered(strings.Join(lines[1:], "\n"), want) == nil {
		t.Error("a missing answer line passed the oracle")
	}
	if compareRendered(want, want) != nil {
		t.Error("the oracle's own answer failed it")
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	if v, ok := tail(xs(100), 0.9); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := tail(xs(99), 0.9); ok {
		t.Error("p90 of 99 samples reported with only 9 beyond it")
	}
	if _, ok := tail(xs(999), 0.99); ok {
		t.Error("p99 of 999 samples reported with only 9 beyond it")
	}
	if v, ok := tail(xs(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	withFailure := append(xs(200), math.Inf(1))
	if v, _ := tail(withFailure, 0.999); !math.IsInf(v, 1) {
		t.Errorf("a failed operation did not reach the tail: %v", v)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestCanonicalLines(t *testing.T) {
	h := newHierarchy(4)
	seeded := h.rename["d0"] + "(X_3, V) <- " + h.rename["a1"] + "(X_3, V) and V > 2\n" + h.rename["b2"] + "(Y, Z)"
	got := h.canonicalLines(seeded)
	want := []string{"b2(V1, V2)", "d0(V1, V2) <- a1(V1, V2) and V2 > 2"}
	if !slices.Equal(got, want) {
		t.Errorf("canonicalLines = %q, want %q", got, want)
	}
}

// TestKnowledgeExpected checks the committed answers against kdb under
// two seeds' names; with -update it rewrites the file instead.
func TestKnowledgeExpected(t *testing.T) {
	var file strings.Builder
	for _, seed := range []int64{1, 9} {
		h := newHierarchy(seed)
		k := kdb.New()
		if err := k.LoadString(h.program); err != nil {
			t.Fatal(err)
		}
		var blocks [][]string
		for _, stmt := range h.pool {
			q, err := kdb.ParseQuery(stmt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := k.ExecContext(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
			blocks = append(blocks, h.canonicalLines(res.String()))
		}
		if *update && seed == 1 {
			for i, b := range blocks {
				file.WriteString("query " + h.base[i] + "\n")
				for _, l := range b {
					file.WriteString(l + "\n")
				}
				file.WriteString("\n")
			}
			if err := os.WriteFile("testdata/knowledge.expected", []byte(file.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			knowledgeExpected = file.String()
		}
		want, err := expectedKnowledge(h.base)
		if err != nil {
			t.Fatal(err)
		}
		for i := range blocks {
			if !slices.Equal(blocks[i], want[i]) {
				t.Errorf("seed %d, %s:\ngot  %q\nwant %q", seed, h.base[i], blocks[i], want[i])
			}
		}
	}
}

// TestBenchmarkJSON checks that the repository's BENCHMARK.json lists
// exactly the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, ours)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program has %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program has %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
}

// TestServeSmoke drives the serve workload briefly, with its concurrent
// clients, and checks every answer and the server-side numbers.
func TestServeSmoke(t *testing.T) {
	t.Chdir(t.TempDir())
	setup, err := workloads[3].gen(1)
	if err != nil {
		t.Fatal(err)
	}
	inst, _, err := setup(true)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := inst.close(); err != nil {
			t.Error(err)
		}
	}()
	si := inst.(*serveInstance)
	before := si.snap()
	rec, _, _, err := phase(context.Background(), inst, 0.3, 20)
	if err != nil {
		t.Fatal(err)
	}
	if rec.attempted < 20 || rec.failed != 0 || rec.wrong != 0 {
		t.Fatalf("attempted %d, failed %d, wrong %d: %s", rec.attempted, rec.failed, rec.wrong, rec.firstBad)
	}
	m := map[string]float64{}
	before.layerMetrics(si.snap(), si.qlog.take(), rec.writes, 0.1, m)
	if m["server.prepared_hit_ratio"] <= 0 || m["storage.probes_per_op"] != 1 {
		t.Errorf("server metrics %v", m)
	}
	if rec.writes > 0 && m["storage.wal_bytes_per_write"] <= 0 {
		t.Errorf("%d writes logged no WAL bytes", rec.writes)
	}
}

func TestVerdict(t *testing.T) {
	def := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		cur  []float64
		want string
	}{
		{"same", scale(steady, 1.01), "same"},
		{"worse", scale(steady, 1.2), "worse"},
		{"better", scale(steady, 0.8), "better"},
		{"unresolved", []float64{60, 140, 70, 130, 100, 90, 110, 80, 120, 100}, "unresolved"},
	} {
		if got := verdict(def, steady, c.cur, seeds, seeds).mark; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	if got := verdict(higher, steady, scale(steady, 1.2), seeds, seeds).mark; got != "better" {
		t.Errorf("higher-is-better throughput rose 20%%: verdict %s, want better", got)
	}
}
