package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"
)

// graph is a generated edge list. The generator keeps it in plain Go so
// the oracle can compute reachability without asking kdb.
type graph struct {
	nodes []string
	edges [][2]string
}

// closureRules is the transitive closure both graph workloads query.
const closureRules = `
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
`

// chainGraph is an n-edge chain whose n+1 node names are shuffled by the
// seed, so the same shape reaches kdb under different symbols.
func chainGraph(seed int64, n int) graph {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n + 1)
	g := graph{nodes: make([]string, n+1)}
	for i, p := range perm {
		g.nodes[i] = fmt.Sprintf("n%d", p)
	}
	for i := 0; i < n; i++ {
		g.edges = append(g.edges, [2]string{g.nodes[i], g.nodes[i+1]})
	}
	return g
}

// forestGraph is a forest of complete binary trees of the given depth
// (a root plus depth levels below it). Node names are shuffled by the
// seed; roots returns the tree roots in the seed's query order.
func forestGraph(seed int64, trees, depth int) (g graph, roots []string) {
	rng := rand.New(rand.NewSource(seed))
	perTree := 1<<(depth+1) - 1
	perm := rng.Perm(trees * perTree)
	for t := 0; t < trees; t++ {
		base := t * perTree
		for i := 0; i < perTree; i++ {
			g.nodes = append(g.nodes, fmt.Sprintf("t%d", perm[base+i]))
		}
		// Heap layout: node i has children 2i+1 and 2i+2.
		for i := 0; 2*i+2 < perTree; i++ {
			g.edges = append(g.edges,
				[2]string{g.nodes[base+i], g.nodes[base+2*i+1]},
				[2]string{g.nodes[base+i], g.nodes[base+2*i+2]})
		}
		roots = append(roots, g.nodes[base])
	}
	rng.Shuffle(len(roots), func(i, j int) { roots[i], roots[j] = roots[j], roots[i] })
	return g, roots
}

// program renders the edge facts and the closure rules as kdb source,
// with the facts in a seeded order.
func (g graph) program(seed int64) string {
	order := rand.New(rand.NewSource(seed)).Perm(len(g.edges))
	var b strings.Builder
	for _, i := range order {
		fmt.Fprintf(&b, "edge(%s, %s).\n", g.edges[i][0], g.edges[i][1])
	}
	b.WriteString(closureRules)
	return b.String()
}

// reach returns every node reachable from src by one or more edges,
// by breadth-first search over the edge list.
func (g graph) reach(src string) []string {
	succ := map[string][]string{}
	for _, e := range g.edges {
		succ[e[0]] = append(succ[e[0]], e[1])
	}
	seen := map[string]bool{}
	var out []string
	queue := succ[src]
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
		queue = append(queue, succ[n]...)
	}
	return out
}

// pathAnswers is the oracle's rendering of `retrieve path(src, Y)` (or
// of the free query when srcs lists every node): one sorted line per
// reachable pair, in the form ExecResult.String prints.
func (g graph) pathAnswers(srcs ...string) string {
	var lines []string
	for _, s := range srcs {
		for _, d := range g.reach(s) {
			lines = append(lines, "path("+s+", "+d+")")
		}
	}
	if len(lines) == 0 {
		return "no answers"
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// Knowledge hierarchy. Its shape is fixed, so its describe/compare
// answers can be checked against a committed file; the seed renames
// every predicate and draws the query sequence.
const (
	attrPreds   = 6 // EDB attributes a0..a5(X, V)
	conceptsL1  = 6 // b0..b5: bodies over attributes
	conceptsL2  = 4 // c0..c3: bodies over level-1 concepts
	conceptsL3  = 3 // d0..d2: bodies over level-2 concepts
	hierarchyID = 7 // fixes the shape; never the run seed
)

// hierarchy is the generated knowledge base: its program text and the
// pool of knowledge queries, both under the seed's predicate names.
type hierarchy struct {
	program string
	pool    []string // query text, seeded names, index = query id
	base    []string // the same queries under base names
	rename  map[string]string
	unname  map[string]string
}

// baseHierarchy builds the fixed-shape program and query pool under
// base predicate names (a*, b*, c*, d*). Every concept has 2 or 3 rules
// whose bodies are two atoms and one comparison.
func baseHierarchy() (program string, queries []string) {
	rng := rand.New(rand.NewSource(hierarchyID))
	var b strings.Builder
	for i := 0; i < attrPreds; i++ {
		for e := 0; e < 3; e++ {
			fmt.Fprintf(&b, "a%d(e%d, %d).\n", i, e, rng.Intn(10))
		}
	}
	cmp := []string{">", "<", ">=", "<="}
	level := func(name string, n int, below string, nb int) {
		for i := 0; i < n; i++ {
			rules := 2 + rng.Intn(2)
			for r := 0; r < rules; r++ {
				p, q := rng.Intn(nb), rng.Intn(nb)
				fmt.Fprintf(&b, "%s%d(X, V) :- %s%d(X, V), %s%d(X, W), W %s %d.\n",
					name, i, below, p, below, q, cmp[rng.Intn(len(cmp))], rng.Intn(10))
			}
		}
	}
	level("b", conceptsL1, "a", attrPreds)
	level("c", conceptsL2, "b", conceptsL1)
	level("d", conceptsL3, "c", conceptsL2)

	for i := 0; i < conceptsL3; i++ {
		for j := 0; j < conceptsL1; j++ {
			queries = append(queries, fmt.Sprintf("describe d%d(X, V) where b%d(X, W) and W > 2.", i, j))
		}
	}
	for j := 0; j < conceptsL1; j++ {
		queries = append(queries, fmt.Sprintf("describe * where b%d(X, V) and V > 4.", j))
	}
	for i := 0; i < conceptsL2; i++ {
		for j := i + 1; j < conceptsL2; j++ {
			queries = append(queries, fmt.Sprintf("compare (describe c%d(X, V)) with (describe c%d(X, V)).", i, j))
		}
	}
	return b.String(), queries
}

// predToken matches a predicate or constant symbol in kdb surface text.
var predToken = regexp.MustCompile(`\b[a-z][a-z0-9_]*\b`)

// newHierarchy renames every generated predicate by a seeded bijection.
func newHierarchy(seed int64) *hierarchy {
	prog, queries := baseHierarchy()
	h := &hierarchy{base: queries, rename: map[string]string{}, unname: map[string]string{}}
	var names []string
	for _, spec := range []struct {
		prefix string
		n      int
	}{{"a", attrPreds}, {"b", conceptsL1}, {"c", conceptsL2}, {"d", conceptsL3}} {
		for i := 0; i < spec.n; i++ {
			names = append(names, fmt.Sprintf("%s%d", spec.prefix, i))
		}
	}
	perm := rand.New(rand.NewSource(seed)).Perm(len(names))
	for i, n := range names {
		h.rename[n] = fmt.Sprintf("k%02d", perm[i])
		h.unname[h.rename[n]] = n
	}
	h.program = h.translate(prog, h.rename)
	for _, q := range queries {
		h.pool = append(h.pool, h.translate(q, h.rename))
	}
	return h
}

// translate replaces every mapped symbol of s.
func (h *hierarchy) translate(s string, m map[string]string) string {
	return predToken.ReplaceAllStringFunc(s, func(tok string) string {
		if r, ok := m[tok]; ok {
			return r
		}
		return tok
	})
}

// varToken matches a variable in kdb surface text.
var varToken = regexp.MustCompile(`\b[A-Z_][A-Za-z0-9_]*\b`)

// canonicalLines splits a rendered answer into lines, renames each
// line's variables to V1, V2, … in order of first appearance, maps the
// seeded predicate names back to base names, and sorts the lines — so
// answers compare independently of variable renaming-apart, the seed's
// names, and answer order.
func (h *hierarchy) canonicalLines(rendered string) []string {
	var out []string
	for _, line := range strings.Split(rendered, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		vars := map[string]string{}
		line = varToken.ReplaceAllStringFunc(line, func(v string) string {
			if c, ok := vars[v]; ok {
				return c
			}
			c := fmt.Sprintf("V%d", len(vars)+1)
			vars[v] = c
			return c
		})
		out = append(out, h.translate(line, h.unname))
	}
	sort.Strings(out)
	return out
}

// knowledgeMix draws n query ids from the pool. Every id appears once
// per round, in a seeded order, so each run covers the whole pool and
// the cost of a run does not hinge on which queries the seed favoured.
func knowledgeMix(seed int64, pool, n int) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x6b6e6f77))
	var out []int
	for len(out) < n {
		out = append(out, rng.Perm(pool)...)
	}
	return out[:n]
}
