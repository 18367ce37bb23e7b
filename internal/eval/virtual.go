package eval

import (
	"kdb/internal/storage"
	"kdb/internal/term"
)

// Virtual supplies read-only system relations (the sys_* namespace) to
// the engines. A provider answers IsVirtual for predicate names it
// serves and materializes one relation per predicate on demand. The
// engines consult it only while building a plan: every virtual
// predicate referenced by the program is snapshotted exactly once per
// evaluation, so all joins inside one query — and the engines run
// over the same plan inputs — see a single consistent state, never a
// live view that shifts mid-fixpoint.
//
// Providers must be safe for concurrent use and must not call back
// into the knowledge-base layer (snapshots are taken while the caller
// may hold its locks).
type Virtual interface {
	// IsVirtual reports whether pred names a virtual relation this
	// provider serves. It is called on the hot planning path and must
	// not allocate.
	IsVirtual(pred string) bool
	// Snapshot materializes the current contents of pred as a fresh
	// relation. The engines treat the result as immutable.
	Snapshot(pred string) (*storage.Relation, error)
}

// virtualSnapshots materializes every virtual predicate referenced by
// the rules (the internal query rule included, so subjects and
// qualifiers count). It returns nil when no virtual predicate occurs:
// on that path — the overwhelmingly common one — it performs no
// allocation at all (enforced by TestVirtualSnapshotsNoSysAllocs), so
// programs that never mention sys_* pay nothing for the provider.
func virtualSnapshots(v Virtual, rules []term.Rule) (map[string]*storage.Relation, error) {
	if v == nil {
		return nil, nil
	}
	var snaps map[string]*storage.Relation
	for _, r := range rules {
		for _, a := range r.Body {
			if !v.IsVirtual(a.Pred) {
				continue
			}
			if _, ok := snaps[a.Pred]; ok {
				continue
			}
			rel, err := v.Snapshot(a.Pred)
			if err != nil {
				return nil, err
			}
			if rel == nil {
				continue
			}
			if snaps == nil {
				snaps = make(map[string]*storage.Relation, 1)
			}
			snaps[a.Pred] = rel
		}
	}
	return snaps, nil
}
