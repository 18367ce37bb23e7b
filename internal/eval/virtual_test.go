package eval

import (
	"context"
	"reflect"
	"testing"

	"kdb/internal/storage"
	"kdb/internal/term"
)

// fakeVirtual serves one virtual relation, sys_fake/2, from an
// in-memory tuple list — the eval-layer contract without the real
// sysrel provider.
type fakeVirtual struct {
	rows  [][2]any // symbol name, number
	snaps int
}

func (f *fakeVirtual) IsVirtual(pred string) bool { return pred == "sys_fake" }

func (f *fakeVirtual) Snapshot(pred string) (*storage.Relation, error) {
	f.snaps++
	rel, err := storage.NewRelation(2)
	if err != nil {
		return nil, err
	}
	for _, r := range f.rows {
		if _, err := rel.Insert(storage.Tuple{term.Sym(r[0].(string)), term.Num(r[1].(float64))}); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

func defaultFake() *fakeVirtual {
	return &fakeVirtual{rows: [][2]any{{"a", 1.0}, {"b", 2.0}, {"c", 3.0}}}
}

// TestVirtualRelationEngineAgreement: every engine answers queries over
// a virtual relation — directly and joined through rules with stored
// data — and all agree.
func TestVirtualRelationEngineAgreement(t *testing.T) {
	src := `
edge(a, b). edge(b, c).
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
big(X) :- sys_fake(X, N), N > 1.
linked(X, Y) :- sys_fake(X, N), reach(X, Y).
`
	cases := []struct {
		q    string
		want []string
	}{
		{`retrieve sys_fake(X, N).`, []string{"a, 1", "b, 2", "c, 3"}},
		{`retrieve sys_fake(X, N) where N > 2.`, []string{"c, 3"}},
		{`retrieve big(X).`, []string{"b", "c"}},
		{`retrieve linked(X, Y).`, []string{"a, b", "a, c", "b, c"}},
	}
	for _, tc := range cases {
		in := load(t, src)
		in.Virtual = defaultFake()
		q := query(t, tc.q)
		got := retrieveAll(t, in, q)
		for name, answers := range got {
			if !reflect.DeepEqual(answers, tc.want) {
				t.Errorf("%s: %s = %v, want %v", tc.q, name, answers, tc.want)
			}
		}
	}
}

// TestVirtualSnapshotFreshPerQuery: each Retrieve sees the provider's
// current contents — the snapshot is per query, not per engine.
func TestVirtualSnapshotFreshPerQuery(t *testing.T) {
	in := load(t, `big(X) :- sys_fake(X, N), N > 1.`)
	fv := defaultFake()
	in.Virtual = fv
	e := NewSemiNaive(in)
	q := query(t, `retrieve big(X).`)
	res, err := e.RetrieveContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Strings(); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("first retrieve = %v", got)
	}
	fv.rows = append(fv.rows, [2]any{"d", 9.0})
	res, err = e.RetrieveContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Strings(); !reflect.DeepEqual(got, []string{"b", "c", "d"}) {
		t.Fatalf("second retrieve = %v, want the new row visible", got)
	}
	if fv.snaps < 2 {
		t.Fatalf("snaps = %d, want one per query", fv.snaps)
	}
}

// TestVirtualSnapshotsNoSysAllocs is the zero-overhead gate virtual.go
// promises: planning a program that references no virtual predicate
// must not allocate in virtualSnapshots, no matter that a provider is
// attached.
func TestVirtualSnapshotsNoSysAllocs(t *testing.T) {
	in := load(t, universityDB)
	v := defaultFake()
	rules := in.Rules
	allocs := testing.AllocsPerRun(200, func() {
		m, err := virtualSnapshots(v, rules)
		if err != nil || m != nil {
			panic("unexpected snapshot work on a sys-free program")
		}
	})
	if allocs != 0 {
		t.Errorf("virtualSnapshots allocates %.1f objects/run on a program with no virtual predicates, want 0", allocs)
	}
	if v.snaps != 0 {
		t.Errorf("provider snapshotted %d times for a sys-free program", v.snaps)
	}
}

// TestVirtualNilProviderUntouched: absent a provider, an unknown sys_
// predicate is simply an empty relation (planning rejects it upstream
// in the kb layer; eval itself treats it as unknown).
func TestVirtualNilProviderUntouched(t *testing.T) {
	in := load(t, universityDB)
	m, err := virtualSnapshots(nil, in.Rules)
	if err != nil || m != nil {
		t.Fatalf("virtualSnapshots(nil) = %v, %v; want nil, nil", m, err)
	}
}
