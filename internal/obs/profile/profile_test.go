package profile

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestProfileMerge checks sample merging: rows key on rule text,
// iterations count rounds, and deltas keep round order.
func TestProfileMerge(t *testing.T) {
	p := New()
	p.Finish("seminaive", 5*time.Millisecond)
	p.Add(Sample{Rule: "r1.", Pred: "p", Wall: time.Millisecond, Tuples: 3, Probes: 4, FullScans: 1})
	p.Add(Sample{Rule: "r1.", Pred: "p", Wall: time.Millisecond, Tuples: 1, Probes: 2})
	p.Add(Sample{Rule: "r2.", Pred: "q", Wall: 3 * time.Millisecond, Tuples: 2, Lookups: 5})

	rows := p.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	// Sorted most-expensive (wall) first: r2's 3ms beats r1's 2ms.
	if rows[0].Rule != "r2." || rows[1].Rule != "r1." {
		t.Fatalf("order = %s, %s; want r2., r1.", rows[0].Rule, rows[1].Rule)
	}
	r1 := rows[1]
	if r1.Iterations != 2 || r1.Tuples != 4 || r1.Wall != 2*time.Millisecond {
		t.Errorf("r1 merged wrong: %+v", r1)
	}
	if r1.Probes != 6 || r1.FullScans != 1 {
		t.Errorf("r1 probes = %d/%d, want 6/1", r1.Probes, r1.FullScans)
	}
	if len(r1.DeltaSizes) != 2 || r1.DeltaSizes[0] != 3 || r1.DeltaSizes[1] != 1 {
		t.Errorf("r1 deltas = %v, want [3 1]", r1.DeltaSizes)
	}
}

// TestProfileText pins the renderer's shape: header, per-rule blocks
// with the index/scan probe split, and the rule legend with synthetic
// markers.
func TestProfileText(t *testing.T) {
	p := New()
	p.Finish("seminaive", 0)
	p.Add(Sample{Rule: "p(X) :- q(X).", Pred: "p", Tuples: 2, Probes: 5, FullScans: 2})
	p.Add(Sample{Rule: "__query__(X) :- p(X).", Pred: "__query__", Synthetic: true, Tuples: 1})
	text := p.String()
	for _, want := range []string{
		"profile: engine=seminaive",
		"rules=2 tuples=3",
		"probes=5 (index 3, scan 2) candidates=0 index-builds=0\n",
		"r1: p(X) :- q(X).",
		"r2: __query__(X) :- p(X). (synthetic)",
		"r2*",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rendering missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "alloc") {
		t.Errorf("rendering carries an allocation column:\n%s", text)
	}
}

// TestProfileJSON checks the wire form consumed by the serve route and
// the query log.
func TestProfileJSON(t *testing.T) {
	p := New()
	p.Finish("topdown", time.Millisecond)
	p.Add(Sample{Rule: "p(X) :- q(X).", Pred: "p", Tuples: 2})
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var wire struct {
		Engine string `json:"engine"`
		WallNS int64  `json:"wall_ns"`
		Rows   []Row  `json:"rows"`
	}
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Engine != "topdown" || wire.WallNS != int64(time.Millisecond) || len(wire.Rows) != 1 {
		t.Errorf("wire = %+v", wire)
	}
	if wire.Rows[0].Pred != "p" || wire.Rows[0].Tuples != 2 {
		t.Errorf("row = %+v", wire.Rows[0])
	}
	if strings.Contains(string(b), "alloc_bytes") {
		t.Errorf("wire form carries alloc_bytes: %s", b)
	}
}

// TestProfileConcurrentAdd exercises the collector's locking (run with
// -race): parallel SCC workers all report to one Profile.
func TestProfileConcurrentAdd(t *testing.T) {
	p := New()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				p.Add(Sample{Rule: "r.", Pred: "r", Tuples: 1})
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	rows := p.Rows()
	if len(rows) != 1 || rows[0].Iterations != 400 || rows[0].Tuples != 400 {
		t.Errorf("rows = %+v", rows)
	}
}
