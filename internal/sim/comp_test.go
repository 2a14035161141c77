package sim

import (
	"testing"

	"histanon/internal/mobility"
)

// TestCompSmoke runs the frontier at toy sizes: every scenario × every
// approach must produce a cell with sane invariants.
func TestCompSmoke(t *testing.T) {
	rows := compFrontier(120, 1, 1, 3, attackCaps{users: 60, boxes: 4, measure: 300})

	cells := map[string]bool{}
	rotating := false
	for _, r := range rows {
		cells[r.Scenario+"/"+r.Approach] = true
		if r.Approach == "mixzone" && r.LinkP95 >= 0 {
			rotating = true
		}
		if r.Requests <= 0 {
			t.Fatalf("%s/%s: no requests in workload", r.Scenario, r.Approach)
		}
		if sum := r.ForwardedPct + r.SuppressedPct; sum < 99.9 || sum > 100.1 {
			t.Fatalf("%s/%s: fwd+suppressed = %g", r.Scenario, r.Approach, sum)
		}
		if r.ForwardedPct > 0 && r.KP50 < 1 {
			t.Fatalf("%s/%s: forwarded requests but achieved-k p50 %g < 1",
				r.Scenario, r.Approach, r.KP50)
		}
		if r.Approach != "mixzone" && r.LinkP95 >= 0 {
			t.Fatalf("%s/%s: link p95 set for a non-rotating approach", r.Scenario, r.Approach)
		}
	}
	for _, sc := range mobility.Scenarios() {
		for _, ap := range compApproaches() {
			if !cells[sc.Name+"/"+ap.name] {
				t.Fatalf("missing frontier cell %s/%s", sc.Name, ap.name)
			}
		}
	}
	if !rotating {
		t.Fatal("no mixzone cell measured cross-rotation linkability")
	}
}

// TestCompFalsifiability proves the harness can tell approaches apart:
// generalization weakened to k-1 must show a measurably worse
// achieved-k distribution and a higher re-identification rate than the
// honest configuration. The attack uses a single box per series so the
// re-id rate isolates per-request anonymity: a k-anonymous box can
// never shrink to one candidate, a (k-1=1)-anonymous box almost always
// does.
func TestCompFalsifiability(t *testing.T) {
	sc, ok := mobility.ScenarioByName("rush-hour")
	if !ok {
		t.Fatal("rush-hour scenario missing")
	}
	w := buildCompWorkload(sc, 300, 1, 7)
	caps := attackCaps{users: 150, boxes: 1, measure: 600}
	const k = 2
	strong := evalApproach(w, "generalize", runGeneralizeApproach(w, k), k, caps)
	weak := evalApproach(w, "generalize-weak", runGeneralizeApproach(w, k-1), k, caps)
	if strong.ForwardedPct == 0 || weak.ForwardedPct == 0 {
		t.Fatalf("degenerate run: fwd%% strong=%g weak=%g", strong.ForwardedPct, weak.ForwardedPct)
	}
	if weak.KP50 >= strong.KP50 {
		t.Errorf("achieved-k p50: weak %g !< strong %g", weak.KP50, strong.KP50)
	}
	if weak.BelowKPct <= strong.BelowKPct {
		t.Errorf("below-k%%: weak %g !> strong %g", weak.BelowKPct, strong.BelowKPct)
	}
	if weak.ReidPct <= strong.ReidPct {
		t.Errorf("re-id%%: weak %g !> strong %g", weak.ReidPct, strong.ReidPct)
	}
}
