package main

import (
	"os"
	"path/filepath"
	"sync"
	"time"

	"kdb"
)

// layerStats folds finished span trees into self time per layer. A
// layer's self time is its span's duration minus the part its child
// spans cover. The benchmark's own spans (op, parse, exec, render) wrap
// the calls into kdb; kdb's tracer supplies the spans inside them.
type layerStats struct {
	mu     sync.Mutex
	ops    int
	self   map[string]time.Duration
	exec   time.Duration // time inside ExecContext
	sccMax time.Duration // per op, the slowest SCC, summed over ops
	keep   []*kdb.Span   // the first trees, written out at the end
}

// keepTrees bounds how many span trees a traced run keeps for export.
const keepTrees = 64

func newLayerStats() *layerStats { return &layerStats{self: map[string]time.Duration{}} }

// add folds one finished root span: an "op" of a library workload, or
// a "serve" request of the server.
func (l *layerStats) add(root *kdb.Span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops++
	var sccMax time.Duration
	var walk func(sp, parent *kdb.Span)
	walk = func(sp, parent *kdb.Span) {
		d := sp.Duration()
		self := d
		for _, c := range sp.Children() {
			self -= c.Duration()
			walk(c, sp)
		}
		if self < 0 {
			self = 0
		}
		l.self[layerOf(sp)] += self
		switch {
		case sp.Name() == "exec", sp.Name() == "query" && parent.Name() == "serve":
			l.exec += d
		case sp.Name() == "scc" && d > sccMax:
			sccMax = d
		}
	}
	walk(root, nil)
	l.sccMax += sccMax
	if len(l.keep) < keepTrees {
		l.keep = append(l.keep, root)
	}
}

// layerOf names the layer a span's self time belongs to.
func layerOf(sp *kdb.Span) string {
	switch sp.Name() {
	case "op":
		return "bench"
	case "parse":
		return "parser"
	case "exec":
		return "kb"
	case "query":
		// compare and describe * run their search inside the query span
		// without spans of their own, so their self time is core work.
		switch attr(sp, "kind") {
		case "compare", "describe-wildcard":
			return "core.describe"
		}
		return "kb"
	case "analyze", "magic-rewrite":
		return "plan"
	case "eval":
		if attr(sp, "algorithm") != "" { // the describe search of core
			return "core.eval"
		}
		return "eval"
	case "describe":
		return "core.describe"
	case "scc", "storage", "render", "serve":
		return sp.Name()
	}
	return "other"
}

func attr(sp *kdb.Span, key string) string {
	for _, a := range sp.Attrs() {
		if a.Key == key {
			return a.Str
		}
	}
	return ""
}

// reset drops what warm-up recorded, so only the timed phase counts.
func (l *layerStats) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops, l.exec, l.sccMax, l.keep = 0, 0, 0, nil
	clear(l.self)
}

// perOp returns a layer's self time per op in milliseconds.
func (l *layerStats) perOp(layer string) float64 {
	return ms(l.self[layer]) / float64(max(l.ops, 1))
}

// metrics reports the layer times as per-layer metrics.
func (l *layerStats) metrics(out map[string]float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := float64(max(l.ops, 1))
	out["kb.exec_ms"] = ms(l.exec) / n
	out["kb.self_ms"] = l.perOp("kb")
	out["eval.plan_ms"] = l.perOp("plan")
	out["parser.query_parse_us"] = l.perOp("parser") * 1000
	out["render.string_ms"] = l.perOp("render")
	out["eval.self_ms"] = l.perOp("eval")
	out["eval.scc_ms"] = l.perOp("scc")
	out["eval.scc_max_ms"] = ms(l.sccMax) / n
	out["storage.self_ms"] = l.perOp("storage")
	out["core.eval_ms"] = l.perOp("core.eval")
	out["core.describe_self_ms"] = l.perOp("core.describe")
	out["server.serve_self_ms"] = l.perOp("serve")
	out["bench.self_ms"] = l.perOp("bench")
}

// writeChrome writes the kept span trees as a Chrome trace file.
func (l *layerStats) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	l.mu.Lock()
	err = kdb.WriteChromeTrace(f, l.keep)
	l.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
