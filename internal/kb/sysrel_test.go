package kb

import (
	"context"
	"strings"
	"testing"
	"time"

	"kdb/internal/obs"
	"kdb/internal/obs/history"
	"kdb/internal/obs/sysrel"
	"kdb/internal/term"
)

// TestSysRetrieveAllEngines: the catalog-shaped virtual relations
// answer identically through the kb and on every eval engine.
func TestSysRetrieveAllEngines(t *testing.T) {
	k := loadKB(t, universityKB)
	queries := []string{
		"retrieve sys_relation(N, A, F).",
		"retrieve sys_relation(N, A, F) where A > 3.",
		"retrieve sys_rule(I, H, B, S).",
		"retrieve sys_rule(I, can_ta, B, S).",
	}
	for _, q := range queries {
		if len(retrieveEachEngine(t, k, q)) == 0 {
			t.Errorf("%s returned nothing", q)
		}
	}
	// Spot-check content: student/3 holds 4 facts.
	out := execStr(t, k, "retrieve sys_relation(student, A, F).")
	if out != "sys_relation(student, 3, 4)" {
		t.Errorf("sys_relation(student, ...) = %q", out)
	}
}

// TestSysJoinsWithUserData: virtual and stored relations join in one
// query body.
func TestSysJoinsWithUserData(t *testing.T) {
	k := loadKB(t, universityKB+`
crowded(N) :- sys_relation(N, A, F), F > 2.
`)
	out := execStr(t, k, "retrieve crowded(N).")
	for _, want := range []string{"course", "enroll", "student"} {
		if !strings.Contains(out, want) {
			t.Errorf("crowded = %q, missing %s", out, want)
		}
	}
}

func TestSysMetricRetrieve(t *testing.T) {
	reg := obs.NewRegistry()
	k := New(WithMetrics(reg))
	defer k.Close()
	if err := k.LoadString("edge(a, b)."); err != nil {
		t.Fatal(err)
	}
	// Warm the query metrics with one ordinary query.
	execStr(t, k, "retrieve edge(X, Y).")
	out := execStr(t, k, `retrieve sys_metric(N, counter, V) where V > 0.`)
	if out == "" {
		t.Fatal("sys_metric returned no counter rows after a query")
	}
}

func TestSysMetricHistoryRetrieve(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetHelp("ticks_total", "Ticks.")
	reg.Counter("ticks_total").Add(5)
	buf := history.New(reg, time.Second, time.Minute)
	buf.Sample()
	k := New(WithMetrics(reg), WithMetricsHistory(buf))
	defer k.Close()
	if err := k.LoadString("edge(a, b)."); err != nil {
		t.Fatal(err)
	}
	out := execStr(t, k, "retrieve sys_metric_history(ticks_total, Age, V).")
	if !strings.Contains(out, "sys_metric_history(ticks_total, 0, 5)") {
		t.Errorf("sys_metric_history = %q", out)
	}
}

func TestSysQueryStats(t *testing.T) {
	k := New(WithQueryStats())
	defer k.Close()
	if err := k.LoadString("edge(a, b). edge(b, c)."); err != nil {
		t.Fatal(err)
	}
	execStr(t, k, "retrieve edge(X, Y).")
	execStr(t, k, "retrieve edge(X, Y).")
	out := execStr(t, k, `retrieve sys_query_stats(S, C, T, M) where C > 1.`)
	if !strings.Contains(out, `"retrieve edge(X, Y)."`) {
		t.Errorf("sys_query_stats = %q, want the repeated statement", out)
	}

	// Without the option the relation is simply empty.
	k2 := loadKB(t, "edge(a, b).")
	defer k2.Close()
	execStr(t, k2, "retrieve edge(X, Y).")
	if out := execStr(t, k2, "retrieve sys_query_stats(S, C, T, M)."); out != "no answers" {
		t.Errorf("sys_query_stats without WithQueryStats = %q, want empty", out)
	}
}

func TestDescribeSysRelation(t *testing.T) {
	k := loadKB(t, universityKB)
	res, err := k.ExecStringContext(context.Background(), "describe sys_metric.")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.System, "sys_metric(Name, Kind, Value)") ||
		!strings.Contains(res.System, "virtual relation") {
		t.Errorf("describe sys_metric = %q", res.System)
	}
	if res.String() != res.System {
		t.Errorf("String() = %q, want the system text", res.String())
	}
	if _, err := k.ExecStringContext(context.Background(), "describe sys_bogus."); err == nil {
		t.Error("describe of an unknown system relation succeeded")
	}
}

func TestSysNamespaceRejections(t *testing.T) {
	k := loadKB(t, universityKB)

	if err := k.Assert(term.NewAtom("sys_metric", term.Sym("a"), term.Sym("b"), term.Num(1))); err == nil {
		t.Error("asserting into a virtual relation succeeded")
	}
	if _, err := k.Retract(term.NewAtom("sys_metric", term.Sym("a"), term.Sym("b"), term.Num(1))); err == nil {
		t.Error("retracting from a virtual relation succeeded")
	}

	for _, src := range []string{
		"sys_thing(a).",
		"sys_mine(X) :- student(X, D, G).",
	} {
		err := k.LoadString(src)
		if err == nil {
			t.Errorf("loading %q succeeded", src)
			continue
		}
		if !strings.Contains(err.Error(), "reserved") {
			t.Errorf("loading %q: error %v does not mention the reserved namespace", src, err)
		}
	}

	// A rule using a sys_ relation with the wrong arity is rejected with
	// the schema in the message.
	err := k.LoadString("busy(K) :- sys_activity(K).")
	if err == nil || !strings.Contains(err.Error(), "sys_activity(Id, Kind, Tenant, ElapsedUs)") {
		t.Errorf("wrong-arity load error = %v", err)
	}

	if _, err := k.ExecStringContext(context.Background(), "retrieve sys_bogus(X)."); err == nil {
		t.Error("retrieving an unknown system relation succeeded")
	}
	if _, err := k.ExecStringContext(context.Background(), "retrieve sys_metric(X)."); err == nil {
		t.Error("retrieving sys_metric at the wrong arity succeeded")
	}
}

func TestWithoutSystemRelations(t *testing.T) {
	k := New(WithoutSystemRelations())
	defer k.Close()
	if k.SystemRelations() != nil {
		t.Fatal("provider survived WithoutSystemRelations")
	}
	// The nil-safe setters keep embedder code unconditional.
	k.SystemRelations().SetTenants(func() []sysrel.TenantInfo { return nil })
	if err := k.LoadString("edge(a, b)."); err != nil {
		t.Fatal(err)
	}
	if out := execStr(t, k, "retrieve edge(X, Y)."); out != "edge(a, b)" {
		t.Errorf("plain retrieve = %q", out)
	}
	if _, err := k.ExecStringContext(context.Background(), "retrieve sys_relation(N, A, F)."); err == nil {
		t.Error("sys_relation answered on a KB without system relations")
	}
	// The namespace stays reserved even with the provider off.
	if err := k.LoadString("sys_thing(a)."); err == nil {
		t.Error("sys_ definition accepted without system relations")
	}
}

// TestSysTenantStandaloneEmpty: without a server-installed source the
// relation exists but is empty.
func TestSysTenantStandaloneEmpty(t *testing.T) {
	k := loadKB(t, "edge(a, b).")
	defer k.Close()
	if out := execStr(t, k, "retrieve sys_tenant(N, O, D, P)."); out != "no answers" {
		t.Errorf("sys_tenant = %q, want empty", out)
	}
	k.SystemRelations().SetTenants(func() []sysrel.TenantInfo {
		return []sysrel.TenantInfo{{Name: "acme", Open: true}}
	})
	if out := execStr(t, k, "retrieve sys_tenant(N, 1, D, P)."); out != "sys_tenant(acme, 1, 0, 0)" {
		t.Errorf("sys_tenant after source = %q", out)
	}
}
