package kb

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"kdb/internal/governor"
	"kdb/internal/obs"
)

// TestProfileStatement: the `profile p(…)` statement returns answers
// plus per-rule cost rows, and the rendering includes the annotated
// plan after the answers.
func TestProfileStatement(t *testing.T) {
	k := New()
	if err := k.LoadString(routesProgram); err != nil {
		t.Fatal(err)
	}
	res, err := k.ExecStringContext(context.Background(), "profile reachable(la, X).")
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile == nil {
		t.Fatal("profile statement returned no profile")
	}
	if len(res.Retrieve.Tuples) == 0 {
		t.Error("profile statement returned no answers")
	}
	if len(res.Profile.Rows()) == 0 {
		t.Error("profile has no rows")
	}
	out := res.String()
	if !strings.Contains(out, "profile: engine=") {
		t.Errorf("rendering missing the profile section:\n%s", out)
	}
	if !strings.Contains(out, "reachable(la,") {
		t.Errorf("rendering missing the answers:\n%s", out)
	}
}

// TestSetProfiling: with always-on profiling, a plain retrieve carries
// a profile; switching it off restores the profile-free result.
func TestSetProfiling(t *testing.T) {
	k := New()
	if err := k.LoadString(routesProgram); err != nil {
		t.Fatal(err)
	}
	if k.Profiling() {
		t.Fatal("profiling on by default")
	}
	k.SetProfiling(true)
	res, err := k.ExecStringContext(context.Background(), "retrieve reachable(la, X).")
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile == nil || len(res.Profile.Rows()) == 0 {
		t.Error("always-on profiling attached no profile to retrieve")
	}
	res, err = k.ExecStringContext(context.Background(), "retrieve reachable(la, X) where X = sf or X = ny.")
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile == nil || len(res.Profile.Rows()) == 0 {
		t.Error("always-on profiling attached no profile to a disjunctive retrieve")
	}
	if got := res.String(); !strings.HasPrefix(got, "reachable(la, ny)\nreachable(la, sf)\n\nprofile: engine=") {
		t.Errorf("disjunctive retrieve rendering:\n%s", got)
	}
	k.SetProfiling(false)
	res, err = k.ExecStringContext(context.Background(), "retrieve reachable(la, X).")
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile != nil {
		t.Error("profile attached with profiling off")
	}
}

// TestQueryLogProfileRows: when a query is profiled, its query-log
// record carries the per-rule rows, so the slow log explains where a
// slow query spent its time.
func TestQueryLogProfileRows(t *testing.T) {
	var buf bytes.Buffer
	ql := obs.NewQueryLog(&buf, 0)
	k := New(WithQueryLog(ql))
	if err := k.LoadString(routesProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ExecStringContext(context.Background(), "profile reachable(la, X)."); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ExecStringContext(context.Background(), "retrieve reachable(la, X)."); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d log lines, want 2:\n%s", len(lines), buf.String())
	}
	type rec struct {
		Kind    string `json:"kind"`
		Profile []struct {
			Rule   string `json:"rule"`
			WallNS int64  `json:"wall_ns"`
			Tuples int64  `json:"tuples"`
		} `json:"profile"`
	}
	var profiled, plain rec
	if err := json.Unmarshal([]byte(lines[0]), &profiled); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &plain); err != nil {
		t.Fatal(err)
	}
	if profiled.Kind != "profile" || len(profiled.Profile) == 0 {
		t.Errorf("profiled record = %s", lines[0])
	}
	var sawRule bool
	for _, r := range profiled.Profile {
		if strings.Contains(r.Rule, "reachable") {
			sawRule = true
		}
	}
	if !sawRule {
		t.Errorf("no reachable rule in the logged profile: %s", lines[0])
	}
	if plain.Profile != nil {
		t.Errorf("unprofiled record carries profile rows: %s", lines[1])
	}
}

// TestQueryLogPartialProfile: a profile statement stopped by a limit
// still logs the per-rule rows it recorded before the stop, so the slow
// log shows where a killed query spent its time.
func TestQueryLogPartialProfile(t *testing.T) {
	var buf bytes.Buffer
	k := New(WithQueryLog(obs.NewQueryLog(&buf, 0)), WithQueryLimits(governor.Limits{MaxFacts: 3}))
	if err := k.LoadString(routesProgram); err != nil {
		t.Fatal(err)
	}
	_, err := k.ExecStringContext(context.Background(), "profile reachable(X, Y).")
	var le *governor.LimitError
	if !errors.As(err, &le) || le.Kind != governor.LimitFacts {
		t.Fatalf("err = %v, want a facts LimitError", err)
	}
	var rec struct {
		Kind    string `json:"kind"`
		Stop    string `json:"stop"`
		Profile []struct {
			Rule string `json:"rule"`
		} `json:"profile"`
	}
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &rec); err != nil {
		t.Fatalf("log %q: %v", buf.String(), err)
	}
	if rec.Kind != "profile" || rec.Stop != "limit:facts" {
		t.Errorf("record kind=%q stop=%q, want profile and limit:facts", rec.Kind, rec.Stop)
	}
	var sawBase bool
	for _, r := range rec.Profile {
		if r.Rule == "reachable(X, Y) :- flight(X, Y)." {
			sawBase = true
		}
	}
	if !sawBase {
		t.Errorf("partial profile rows missing the base rule: %s", buf.String())
	}
}

// TestProfileRenderedWithKnowledge: with always-on profiling and
// intensional answering both on, a retrieve renders its answers, then
// the knowledge characterizing them, then the profile.
func TestProfileRenderedWithKnowledge(t *testing.T) {
	k := New()
	if err := k.LoadString(routesProgram); err != nil {
		t.Fatal(err)
	}
	k.SetProfiling(true)
	k.SetIntensional(true)
	res, err := k.ExecStringContext(context.Background(), "retrieve reachable(la, X) where flight(X, chi).")
	if err != nil {
		t.Fatal(err)
	}
	if res.Knowledge == nil || res.Profile == nil {
		t.Fatalf("knowledge=%v profile=%v, want both", res.Knowledge, res.Profile)
	}
	out := res.String()
	answers := strings.Index(out, "reachable(la, dal)")
	because := strings.Index(out, "\nbecause:\n")
	prof := strings.Index(out, "\n\nprofile: engine=")
	if answers < 0 || because < answers || prof < because {
		t.Errorf("want answers, then because:, then the profile:\n%s", out)
	}
}
