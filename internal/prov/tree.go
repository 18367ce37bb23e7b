package prov

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"kdb/internal/obs"
	"kdb/internal/term"
)

// NodeKind classifies one node of a derivation tree.
type NodeKind uint8

const (
	// NodeDerived is an IDB fact with a recorded witness; its children
	// are the instantiated body of the rule that fired.
	NodeDerived NodeKind = iota
	// NodeEDB is a stored (extensional) fact — a leaf, as in the
	// paper's derivation trees.
	NodeEDB
	// NodeBuiltin is a ground comparison that held (e.g. 3.9 > 3.7).
	NodeBuiltin
	// NodeCycle marks a fact already being expanded higher on the same
	// path; reconstruction cuts here so a self-supporting witness graph
	// cannot make it recurse forever.
	NodeCycle
	// NodeUnknown is a fact with no witness and no stored tuple — the
	// recorder was bounded, or the fact came from outside the query.
	NodeUnknown
	// NodeTruncated replaces a subtree cut by the node budget.
	NodeTruncated
)

// String returns the leaf marker used in text rendering.
func (k NodeKind) String() string {
	switch k {
	case NodeDerived:
		return "derived"
	case NodeEDB:
		return "edb"
	case NodeBuiltin:
		return "builtin"
	case NodeCycle:
		return "cycle"
	case NodeUnknown:
		return "unknown"
	default:
		return "truncated"
	}
}

// Node is one node of a reconstructed derivation tree.
type Node struct {
	Fact term.Atom
	Kind NodeKind
	// Rule is the 1-based display id of the rule that derived Fact
	// (index+1 into Explanation.Rules); 0 for leaves.
	Rule int
	// Children are the instantiated body atoms of the firing rule, in
	// body order. Empty for leaves and for bodiless (axiom) rules.
	Children []*Node
}

// Explanation is the result of explaining one subject: a derivation
// tree per ground instance, plus the legend of rules the trees use,
// numbered in first-use (pre-order) order so the rendering is stable
// across engines.
type Explanation struct {
	Subject term.Atom
	Trees   []*Node
	Rules   []term.Rule
	// Entries is how many witnesses the evaluation recorded.
	Entries int
	// Nodes is the total node count across Trees.
	Nodes int
	// Truncated reports that the node budget cut at least one subtree.
	Truncated bool
}

// Explain reconstructs derivation trees for the given ground facts from
// the recorder's witnesses. isEDB reports whether an atom is a stored
// extensional fact (those become leaves even if a witness exists, e.g.
// facts of predicates that also have rules). maxNodes bounds the total
// node count across all trees; 0 means unbounded.
func (r *Recorder) Explain(subject term.Atom, facts []term.Atom, isEDB func(term.Atom) bool, maxNodes int) *Explanation {
	e := &Explanation{Subject: subject, Entries: r.Len()}
	b := &builder{
		rec:      r,
		isEDB:    isEDB,
		maxNodes: maxNodes,
		ruleIDs:  make(map[int]int),
		onPath:   make(map[string]bool),
	}
	for _, f := range facts {
		e.Trees = append(e.Trees, b.build(f))
	}
	e.Rules = b.rules
	e.Nodes = b.nodes
	e.Truncated = b.truncated
	return e
}

type builder struct {
	rec       *Recorder
	isEDB     func(term.Atom) bool
	maxNodes  int
	nodes     int
	truncated bool
	ruleIDs   map[int]int // recorder rule id → 1-based display id
	rules     []term.Rule
	onPath    map[string]bool
}

func (b *builder) build(a term.Atom) *Node {
	b.nodes++
	if b.maxNodes > 0 && b.nodes > b.maxNodes {
		b.truncated = true
		return &Node{Fact: a, Kind: NodeTruncated}
	}
	if term.IsComparison(a) {
		return &Node{Fact: a, Kind: NodeBuiltin}
	}
	key := a.Key()
	if b.onPath[key] {
		return &Node{Fact: a, Kind: NodeCycle}
	}
	if b.isEDB != nil && b.isEDB(a) {
		return &Node{Fact: a, Kind: NodeEDB}
	}
	w := b.rec.witness(key)
	if w == nil {
		return &Node{Fact: a, Kind: NodeUnknown}
	}
	id, ok := b.ruleIDs[w.RuleID]
	if !ok {
		b.rules = append(b.rules, b.rec.rule(w.RuleID))
		id = len(b.rules)
		b.ruleIDs[w.RuleID] = id
	}
	n := &Node{Fact: a, Kind: NodeDerived, Rule: id}
	b.onPath[key] = true
	for _, p := range w.Body {
		n.Children = append(n.Children, b.build(p))
	}
	delete(b.onPath, key)
	return n
}

// WriteText renders the explanation as an indented tree followed by the
// rule legend, in the style of the tracer's console tree.
func (e *Explanation) WriteText(w io.Writer) error {
	var b strings.Builder
	if len(e.Trees) == 0 {
		fmt.Fprintf(&b, "no derivation: %s is not in the answer set\n", e.Subject)
	}
	for i, t := range e.Trees {
		if i > 0 {
			b.WriteByte('\n')
		}
		writeNode(&b, t, 0)
	}
	if len(e.Rules) > 0 {
		b.WriteString("\nrules:\n")
		for i, r := range e.Rules {
			fmt.Fprintf(&b, "  r%d: %s\n", i+1, r)
		}
	}
	if e.Truncated {
		b.WriteString("\n(tree truncated by node budget)\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeNode(b *strings.Builder, n *Node, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Fact.String())
	switch n.Kind {
	case NodeDerived:
		fmt.Fprintf(b, "  [r%d]", n.Rule)
	default:
		fmt.Fprintf(b, "  [%s]", n.Kind)
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		writeNode(b, c, depth+1)
	}
}

// String renders the explanation as text.
func (e *Explanation) String() string {
	var b strings.Builder
	e.WriteText(&b) // strings.Builder never errors
	return b.String()
}

// jsonNode is the wire form of a derivation-tree node.
type jsonNode struct {
	Fact     string     `json:"fact"`
	Kind     string     `json:"kind"`
	Rule     int        `json:"rule,omitempty"`
	Children []jsonNode `json:"children,omitempty"`
}

func toJSONNode(n *Node) jsonNode {
	out := jsonNode{Fact: n.Fact.String(), Kind: n.Kind.String(), Rule: n.Rule}
	for _, c := range n.Children {
		out.Children = append(out.Children, toJSONNode(c))
	}
	return out
}

// MarshalJSON emits the subject, trees, and rule legend (1-based ids
// matching each node's "rule" field).
func (e *Explanation) MarshalJSON() ([]byte, error) {
	type wire struct {
		Subject   string     `json:"subject"`
		Trees     []jsonNode `json:"trees"`
		Rules     []string   `json:"rules,omitempty"`
		Entries   int        `json:"entries"`
		Nodes     int        `json:"nodes"`
		Truncated bool       `json:"truncated,omitempty"`
	}
	out := wire{
		Subject:   e.Subject.String(),
		Trees:     make([]jsonNode, 0, len(e.Trees)),
		Entries:   e.Entries,
		Nodes:     e.Nodes,
		Truncated: e.Truncated,
	}
	for _, t := range e.Trees {
		out.Trees = append(out.Trees, toJSONNode(t))
	}
	for _, r := range e.Rules {
		out.Rules = append(out.Rules, r.String())
	}
	return json.Marshal(out)
}

// WriteJSON writes the explanation as one indented JSON document.
func (e *Explanation) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

// WriteChromeTrace renders the derivation trees as a Chrome/Perfetto
// trace via the obs exporter: each node becomes a synthetic complete
// event whose width is its leaf count, so the trace viewer shows the
// derivation as a flame graph (children partition their parent).
func (e *Explanation) WriteChromeTrace(w io.Writer) error {
	base := time.Unix(0, 0)
	var roots []*obs.Span
	offset := int64(0)
	for _, t := range e.Trees {
		sp, width := syntheticSpan(t, base, offset)
		roots = append(roots, sp)
		offset += width
	}
	return obs.WriteChromeTrace(w, roots)
}

// syntheticSpan converts a node into an ended span covering one
// microsecond per leaf under it, starting at base+offset µs. Children
// partition the parent's interval left to right in body order.
func syntheticSpan(n *Node, base time.Time, offset int64) (*obs.Span, int64) {
	width := int64(0)
	var kids []*obs.Span
	for _, c := range n.Children {
		sp, w := syntheticSpan(c, base, offset+width)
		kids = append(kids, sp)
		width += w
	}
	if width == 0 {
		width = 1 // a leaf occupies one unit
	}
	start := base.Add(time.Duration(offset) * time.Microsecond)
	end := base.Add(time.Duration(offset+width) * time.Microsecond)
	sp := obs.NewSpanAt(n.Fact.String(), start, end)
	sp.SetStr("kind", n.Kind.String())
	if n.Kind == NodeDerived {
		sp.SetInt("rule", int64(n.Rule))
	}
	for _, k := range kids {
		sp.AddChild(k)
	}
	return sp, width
}
