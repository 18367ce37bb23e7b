package kdb_test

// The benchmark harness of DESIGN.md: one bench per characterization
// experiment (B1–B5 at this level; B6–B8 live in their substrate
// packages). The paper reports no measurements — these benches
// characterize the reproduction: engine comparisons on transitive
// closure, Algorithm 1 scaling in rule fan-out, depth, and hypothesis
// size, Algorithm 2 against recursive subjects, and redundancy
// elimination. Run with:
//
//	go test -bench=. -benchmem .

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"kdb"
	"kdb/internal/eval"
	"kdb/internal/parser"
	"kdb/internal/storage"
	"kdb/internal/term"
)

func mustKB(b *testing.B, src string) *kdb.KB {
	b.Helper()
	k := kdb.New()
	if err := k.LoadString(src); err != nil {
		b.Fatal(err)
	}
	return k
}

func benchQuery(b *testing.B, k *kdb.KB, q string) {
	b.Helper()
	query, err := kdb.ParseQuery(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.ExecContext(context.Background(), query); err != nil {
			b.Fatal(err)
		}
	}
}

// --- B1: retrieve engines on transitive closure, size sweep ---

func chainKB(b *testing.B, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "edge(n%04d, n%04d).\n", i, i+1)
	}
	sb.WriteString(`
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
`)
	return sb.String()
}

// evalInput loads a program the way the engines see it: ground facts
// become stored tuples, everything else becomes rules.
func evalInput(b *testing.B, src string) eval.Input {
	b.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		b.Fatal(err)
	}
	st := storage.NewMemory()
	var rules []term.Rule
	for _, c := range p.Clauses {
		if !c.IsFact() {
			rules = append(rules, c)
		} else if _, err := st.InsertAtom(c.Head); err != nil {
			b.Fatal(err)
		}
	}
	return eval.Input{Store: st, Rules: rules}
}

// benchEngine times one eval engine on one retrieve statement.
func benchEngine(b *testing.B, e eval.Engine, q string) {
	b.Helper()
	parsed, err := parser.ParseQuery(q)
	if err != nil {
		b.Fatal(err)
	}
	r := parsed.(*parser.Retrieve)
	query := eval.Query{Subject: r.Subject, Where: r.Where}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RetrieveContext(context.Background(), query); err != nil {
			b.Fatal(err)
		}
	}
}

// engines are the eval strategies compared directly, below the kb.
var engines = []struct {
	name string
	mk   func(eval.Input, ...eval.EngineOption) eval.Engine
}{
	{"naive", eval.NewNaive},
	{"seminaive", eval.NewSemiNaive},
	{"topdown", eval.NewTopDown},
}

func BenchmarkRetrieveEngines(b *testing.B) {
	for _, n := range []int{25, 50, 100} {
		in := evalInput(b, chainKB(b, n))
		for _, e := range engines {
			b.Run(fmt.Sprintf("engine=%s/chain=%d", e.name, n), func(b *testing.B) {
				benchEngine(b, e.mk(in), `retrieve path(X, Y).`)
			})
		}
		// Parallel semi-naive on the single-SCC chain: the acceptance bar
		// is parity with the sequential engine (there is nothing to spread,
		// so this measures the scheduler's overhead).
		b.Run(fmt.Sprintf("engine=seminaive-par/chain=%d", n), func(b *testing.B) {
			benchEngine(b, eval.NewSemiNaive(in, eval.WithWorkers(0)), `retrieve path(X, Y).`)
		})
	}
}

// wideKB builds several independent chain closures joined by one top
// rule: the SCC condensation is wide, so parallel stratum evaluation has
// independent work to schedule.
func wideKB(chains, length int) string {
	var sb strings.Builder
	for c := 0; c < chains; c++ {
		for i := 0; i < length; i++ {
			fmt.Fprintf(&sb, "edge%d(n%04d, n%04d).\n", c, i, i+1)
		}
		fmt.Fprintf(&sb, "path%d(X, Y) :- edge%d(X, Y).\n", c, c)
		fmt.Fprintf(&sb, "path%d(X, Y) :- edge%d(X, Z), path%d(Z, Y).\n", c, c, c)
	}
	sb.WriteString("top(X, Y) :- path0(X, Y)")
	for c := 1; c < chains; c++ {
		fmt.Fprintf(&sb, ", path%d(X, Y)", c)
	}
	sb.WriteString(".\n")
	return sb.String()
}

func BenchmarkRetrieveParallelStrata(b *testing.B) {
	src := wideKB(8, 40)
	for _, workers := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			k := kdb.New(kdb.WithParallelism(workers))
			if err := k.LoadString(src); err != nil {
				b.Fatal(err)
			}
			benchQuery(b, k, `retrieve top(X, Y).`)
		})
	}
}

// BenchmarkRetrieveBoundGoal compares the strategies on a bound goal
// over a 200-edge chain, then times what the kb does with it: through
// kdb.New the bound goal runs top-down and the free goal semi-naive.
func BenchmarkRetrieveBoundGoal(b *testing.B) {
	src := chainKB(b, 200)
	in := evalInput(b, src)
	for _, e := range engines[1:] {
		b.Run("engine="+e.name, func(b *testing.B) {
			benchEngine(b, e.mk(in), `retrieve path(n0000, Y).`)
		})
	}
	for _, q := range []struct{ name, stmt string }{
		{"kdb/bound", `retrieve path(n0000, Y).`},
		{"kdb/free", `retrieve path(X, Y).`},
	} {
		b.Run(q.name, func(b *testing.B) {
			benchQuery(b, mustKB(b, src), q.stmt)
		})
	}
}

// --- B2: Algorithm 1 scaling ---

// fanoutKB builds a subject with w alternative rules over distinct EDB
// predicates, each body holding the hypothesis target plus filler atoms.
func fanoutKB(width, filler int) string {
	var sb strings.Builder
	for w := 0; w < width; w++ {
		fmt.Fprintf(&sb, "goal(X) :- target(X)")
		for f := 0; f < filler; f++ {
			fmt.Fprintf(&sb, ", extra%d_%d(X)", w, f)
		}
		sb.WriteString(".\n")
	}
	return sb.String()
}

func BenchmarkDescribeFanout(b *testing.B) {
	for _, width := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("rules=%d", width), func(b *testing.B) {
			k := mustKB(b, fanoutKB(width, 3))
			benchQuery(b, k, `describe goal(X) where target(X).`)
		})
	}
}

// depthKB builds a rule chain goal → l1 → … → ln → target so the
// identification happens n levels deep.
func depthKB(depth int) string {
	var sb strings.Builder
	sb.WriteString("goal(X) :- l1(X).\n")
	for d := 1; d < depth; d++ {
		fmt.Fprintf(&sb, "l%d(X) :- l%d(X).\n", d, d+1)
	}
	fmt.Fprintf(&sb, "l%d(X) :- target(X), side%d(X).\n", depth, depth)
	return sb.String()
}

func BenchmarkDescribeDepth(b *testing.B) {
	for _, depth := range []int{2, 6, 12} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			k := mustKB(b, depthKB(depth))
			k.SetDescribeOptions(kdb.DescribeOptions{MaxDepth: depth + 4})
			benchQuery(b, k, `describe goal(X) where target(X).`)
		})
	}
}

func BenchmarkDescribeHypothesisSize(b *testing.B) {
	// One rule with h conjuncts, hypothesis naming all of them.
	for _, h := range []int{1, 3, 6} {
		b.Run(fmt.Sprintf("conjuncts=%d", h), func(b *testing.B) {
			var rule, hyp strings.Builder
			rule.WriteString("goal(X) :- ")
			for i := 0; i < h; i++ {
				if i > 0 {
					rule.WriteString(", ")
					hyp.WriteString(" and ")
				}
				fmt.Fprintf(&rule, "part%d(X)", i)
				fmt.Fprintf(&hyp, "part%d(X)", i)
			}
			rule.WriteString(".\n")
			k := mustKB(b, rule.String())
			benchQuery(b, k, fmt.Sprintf(`describe goal(X) where %s.`, hyp.String()))
		})
	}
}

// --- B3: Algorithm 2 (recursive describe) ---

const universitySrc = `
student(ann, math, 3.9).
honor(X) :- student(X, Y, Z), Z > 3.7.
prior(X, Y) :- prereq(X, Y).
prior(X, Y) :- prereq(X, Z), prior(Z, Y).
can_ta(X, Y) :- honor(X), complete(X, Y, Z, U), U > 3.3, taught(V, Y, Z, W), teach(V, Y).
can_ta(X, Y) :- honor(X), complete(X, Y, Z, 4).
`

func BenchmarkDescribeRecursive(b *testing.B) {
	b.Run("transformed", func(b *testing.B) {
		k := mustKB(b, universitySrc)
		benchQuery(b, k, `describe prior(X, Y) where prior(databases, Y).`)
	})
	b.Run("step-form", func(b *testing.B) {
		k := mustKB(b, universitySrc)
		k.SetDescribeOptions(kdb.DescribeOptions{KeepSteps: true})
		benchQuery(b, k, `describe prior(X, Y) where prior(databases, Y).`)
	})
	b.Run("typed-guard", func(b *testing.B) {
		k := mustKB(b, universitySrc)
		benchQuery(b, k, `describe prior(X, Y) where prior(X, databases).`)
	})
}

func BenchmarkDescribeUntypedBound(b *testing.B) {
	src := `
link(a, b).
reach(X, Y) :- link(X, Y).
reach(X, Y) :- reach(Y, X).
`
	for _, bound := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("bound=%d", bound), func(b *testing.B) {
			k := mustKB(b, src)
			k.SetDescribeOptions(kdb.DescribeOptions{UntypedBound: bound})
			benchQuery(b, k, `describe reach(X, Y) where link(Y, X).`)
		})
	}
}

// --- B4 lives in internal/transform; B5: redundancy elimination ---

func BenchmarkRedundancyElimination(b *testing.B) {
	// Many overlapping rules for one subject: answers heavily subsume
	// each other, exercising the θ-subsumption pass.
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			var sb strings.Builder
			for i := 0; i <= n; i++ {
				sb.WriteString("goal(X) :- base(X)")
				for j := 0; j < i; j++ {
					fmt.Fprintf(&sb, ", opt%d(X)", j)
				}
				sb.WriteString(".\n")
			}
			k := mustKB(b, sb.String())
			benchQuery(b, k, `describe goal(X) where base(X).`)
		})
	}
}

// --- End-to-end benches over the paper's experiments ---

func BenchmarkPaperExamples(b *testing.B) {
	cases := []struct{ name, query string }{
		{"E1-retrieve", `retrieve honor(X) where enroll(X, databases).`},
		{"E3-describe", `describe can_ta(X, databases) where student(X, math, V) and V > 3.7.`},
		{"E4-definition", `describe honor(X).`},
		{"E6-recursive", `describe prior(X, Y) where prior(databases, Y).`},
		{"X2-not", `describe can_ta(X, Y) where not honor(X).`},
		{"X3-possible", `describe where student(X, Y, Z) and Z < 3.5 and can_ta(X, U).`},
		{"X5-compare", `compare (describe honor(X)) with (describe deans_list(X)).`},
	}
	k := kdb.New()
	if err := k.LoadFile("testdata/university.kdb"); err != nil {
		b.Fatal(err)
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			benchQuery(b, k, c.query)
		})
	}
}

func BenchmarkLoadUniversity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := kdb.New()
		if err := k.LoadFile("testdata/university.kdb"); err != nil {
			b.Fatal(err)
		}
	}
}
