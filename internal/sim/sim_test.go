package sim

import (
	"bytes"
	"strings"
	"testing"

	"histanon/internal/sp"
	"histanon/internal/ts"
)

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:      "EX",
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Notes:   "hello",
	}
	tab.AddRow(1, 2.5)
	tab.AddRow("xx", 0.333333)
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"EX — demo", "long-column", "0.333", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render misses %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tab.Markdown(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "| a | long-column |") {
		t.Fatalf("markdown header wrong:\n%s", buf.String())
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"E1", "E5", "E10"} {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s missing", id)
		}
	}
	if _, ok := ByID("E99"); ok {
		t.Error("unknown experiment must not resolve")
	}
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if len(seen) != 15 {
		t.Errorf("expected 15 experiments, got %d", len(seen))
	}
}

func smallScenario() ScenarioConfig {
	cfg := DefaultScenario()
	cfg.Mobility.Users = 40
	cfg.Mobility.Days = 7
	cfg.Mobility.Homes = 12
	cfg.Mobility.Offices = 5
	return cfg
}

func TestRunScenarioSmoke(t *testing.T) {
	cfg := smallScenario()
	res := Run(cfg)
	if len(res.Decisions) == 0 || len(res.Decisions) != len(res.Requests) {
		t.Fatalf("decisions=%d requests=%d", len(res.Decisions), len(res.Requests))
	}
	reqCount := res.Server.Counters.Get("requests")
	if reqCount != int64(len(res.Requests)) {
		t.Fatalf("counter requests=%d events=%d", reqCount, len(res.Requests))
	}
	fwd := res.Server.Counters.Get("forwarded")
	if int64(len(res.Provider.Requests())) != fwd {
		t.Fatalf("provider recorded %d, counter says %d", len(res.Provider.Requests()), fwd)
	}
	if res.Server.Counters.Get("generalized") == 0 {
		t.Fatal("commuters with LBQIDs must trigger generalization")
	}
	// Unlimited tolerance: no failures, no unlinkings.
	if res.Server.Counters.Get("hk_failures") != 0 {
		t.Fatalf("unexpected failures: %s", res.Server.Counters)
	}
}

func TestTheoremOneOnPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full 14-day pipeline")
	}
	const k = 3
	cfg := smallScenario()
	cfg.Mobility.Users = 60
	cfg.Mobility.Days = 14
	cfg.Policy = ts.Policy{K: k}
	res := Run(cfg)

	series := res.ExposedSeries()
	if len(series) == 0 {
		t.Fatal("two weeks of commuting must expose some LBQIDs")
	}
	attacker := &sp.Attacker{Knowledge: res.Server.Store()}
	for u, reqs := range series {
		rep := attacker.AttackSeries(reqs)
		if len(rep.Candidates) < k {
			t.Fatalf("user %v: anonymity set %d < k=%d over %d requests",
				u, len(rep.Candidates), k, len(reqs))
		}
		if rep.Identified {
			t.Fatalf("user %v identified despite historical %d-anonymity", u, k)
		}
	}
}

func TestFailureAndUnlinkRates(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline sweep")
	}
	// A very tight tolerance must produce failures and unlinkings.
	cfg := smallScenario()
	cfg.Policy = ts.Policy{K: 8}
	cfg.Tolerance = tightTolerance()
	res := Run(cfg)
	if res.Server.Counters.Get("hk_failures") == 0 {
		t.Fatalf("tight tolerance must cause failures: %s", res.Server.Counters)
	}
	if res.FailureRate() <= 0 {
		t.Fatal("failure rate must be positive")
	}
}

// TestFastExperimentsProduceTables smoke-runs the cheap experiments so
// the harness itself stays covered by `go test`.
func TestFastExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	for _, id := range []string{"E3", "E9"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("%s missing", id)
		}
		tab := e.Run()
		if tab.ID != id || len(tab.Rows) == 0 || len(tab.Columns) == 0 {
			t.Fatalf("%s produced a malformed table: %+v", id, tab)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Columns) {
				t.Fatalf("%s row width %d != %d columns", id, len(row), len(tab.Columns))
			}
		}
	}
}
