package main

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"kdb"
)

// libQueries is a library workload's generated input: the program, the
// statement of op i, and the oracle that checks op i's answer. A timed
// run ends only after whole rounds of round ops, so a mix of cheap and costly
// statements enters every run in the same proportions.
type libQueries struct {
	program string
	round   int
	stmt    func(i int) string
	check   func(i int, res *kdb.ExecResult, rendered string) error
}

// libInstance is one loaded KB driven by a single closed-loop caller
// through the default engine (semi-naive, one worker).
type libInstance struct {
	libQueries
	k      *kdb.KB
	kt     *kdb.Tracer // kdb's spans; nil when untraced
	own    *kdb.Tracer // the benchmark's spans; nil when untraced
	layers *layerStats
	last   *kdb.EvalStats
	next   int // index of the next op
}

// setupLib loads the program into a fresh KB. When traced it also times
// the program's parse and analysis on their own, which split the load
// time.
func setupLib(in libQueries, traced bool) (*libInstance, setupTimes, error) {
	var st setupTimes
	l := &libInstance{libQueries: in}
	var opts []kdb.Option
	if traced {
		t0 := time.Now()
		prog, err := kdb.ParseProgram(in.program)
		if err != nil {
			return nil, st, err
		}
		st.parse = time.Since(t0)
		t0 = time.Now()
		if rep := kdb.Analyze(prog); rep.HasErrors() {
			return nil, st, fmt.Errorf("generated program: %v", rep.Errors())
		}
		st.analyze = time.Since(t0)
		l.kt, l.own, l.layers = kdb.NewTracer(), kdb.NewTracer(), newLayerStats()
		l.own.OnFinish(l.layers.add)
		opts = append(opts, kdb.WithTracer(l.kt))
	}
	t0 := time.Now()
	l.k = kdb.New(opts...)
	if err := l.k.LoadString(in.program); err != nil {
		return nil, st, err
	}
	st.load = time.Since(t0)
	return l, st, nil
}

func (l *libInstance) run(ctx context.Context, until time.Time, minOps int, rec *recorder) error {
	for n := 0; time.Now().Before(until) || n < minOps || l.next%l.round != 0; n++ {
		if err := l.op(ctx, l.next, rec); err != nil {
			return err
		}
		l.next++
	}
	return nil
}

// op runs statement i: parse, execute and render are the user's cost
// and are timed; the oracle check after them is not.
func (l *libInstance) op(ctx context.Context, i int, rec *recorder) error {
	root := l.own.Start("op")
	start := time.Now()
	sp := root.Child("parse")
	q, err := kdb.ParseQuery(l.stmt(i))
	sp.End()
	if err != nil {
		return fmt.Errorf("generated statement %q: %w", l.stmt(i), err)
	}
	sp = root.Child("exec")
	res, err := l.k.ExecContext(ctx, q)
	sp.AddChild(l.kt.Last())
	sp.End()
	var rendered string
	if err == nil {
		sp = root.Child("render")
		rendered = res.String()
		sp.End()
	}
	d := time.Since(start)
	l.own.Finish(root)
	if err != nil {
		rec.fail(opRead, fmt.Sprintf("%s: %v", l.stmt(i), err))
		return nil
	}
	var c counts
	if st := l.k.LastStats(); st != nil && st != l.last {
		l.last = st
		c.addEval(st, len(res.Retrieve.Tuples)) // fresh stats come from a retrieve
	}
	if res.Describe != nil {
		c.describeNodes += int64(res.Describe.Nodes)
	}
	for _, e := range res.Wildcard {
		c.describeNodes += int64(e.Answers.Nodes)
	}
	if err := l.check(i, res, rendered); err != nil {
		rec.wrongAnswer(fmt.Sprintf("%s: %v", l.stmt(i), err))
		return nil
	}
	rec.ok(opRead, d, c)
	return nil
}

func (l *libInstance) layerStats() *layerStats { return l.layers }
func (l *libInstance) close() error            { return l.k.Close() }

// closureQueries is the free transitive closure over a shuffled chain.
func closureQueries(seed int64, edges int) libQueries {
	g := chainGraph(seed, edges)
	want := g.pathAnswers(g.nodes...)
	return libQueries{
		program: g.program(seed),
		round:   1,
		stmt:    func(int) string { return "retrieve path(X, Y)." },
		check: func(_ int, _ *kdb.ExecResult, got string) error {
			return compareRendered(got, want)
		},
	}
}

// boundQueries is the bound-source closure over a forest, one root per
// op in the seed's order.
func boundQueries(seed int64, trees, depth int) libQueries {
	g, roots := forestGraph(seed, trees, depth)
	stmts := make([]string, len(roots))
	want := make([]string, len(roots))
	for i, r := range roots {
		stmts[i] = "retrieve path(" + r + ", Y)."
		want[i] = g.pathAnswers(r)
	}
	return libQueries{
		program: g.program(seed),
		round:   1, // every root heads an identical tree
		stmt:    func(i int) string { return stmts[i%len(stmts)] },
		check: func(i int, _ *kdb.ExecResult, got string) error {
			return compareRendered(got, want[i%len(want)])
		},
	}
}

// knowledgeQueries is the seeded describe/compare mix over the concept
// hierarchy, checked against the committed expected answers.
func knowledgeQueries(seed int64) (libQueries, error) {
	h := newHierarchy(seed)
	want, err := expectedKnowledge(h.base)
	if err != nil {
		return libQueries{}, err
	}
	mix := knowledgeMix(seed, len(h.pool), 64*len(h.pool))
	return libQueries{
		program: h.program,
		round:   len(h.pool),
		stmt:    func(i int) string { return h.pool[mix[i%len(mix)]] },
		check: func(i int, res *kdb.ExecResult, got string) error {
			if res.Describe != nil && res.Describe.Truncated {
				return fmt.Errorf("answer truncated")
			}
			for _, e := range res.Wildcard {
				if e.Answers.Truncated {
					return fmt.Errorf("answer for %s truncated", e.Subject)
				}
			}
			if lines := h.canonicalLines(got); !slices.Equal(lines, want[mix[i%len(mix)]]) {
				return fmt.Errorf("got %q, want %q", lines, want[mix[i%len(mix)]])
			}
			return nil
		},
	}, nil
}

// compareRendered reports the first line where a rendered retrieve
// answer departs from the oracle's.
func compareRendered(got, want string) error {
	if got == want {
		return nil
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Errorf("answer line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Errorf("got %d answer lines, want %d", len(g), len(w))
}
