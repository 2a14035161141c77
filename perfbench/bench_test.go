package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"histanon/internal/geo"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks
// the output against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs one workload at self-test scale and returns its exit
// code and parsed result line.
func runTiny(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	args = append([]string{"-agents", "200", "-seconds", "0.3", "-workdir", t.TempDir()}, args...)
	code := run(args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last output line is not a result: %q (%v)\nstderr:\n%s", lines[len(lines)-1], err, errOut.String())
	}
	return code, res, errOut.String()
}

// TestEveryWorkloadReportsEveryMetric runs every workload untraced and
// traced at tiny scale: the output checks pass and every metric
// BENCHMARK.json names is printed with its unit.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			code, res, stderr := runTiny(t, "-workload", w.Name, "-seed", "3", "-trace", []string{"0", "1"}[trace])
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%d: exit %d, result %+v\n%s", w.Name, trace, code, res, stderr)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %q", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestChecksCatchPlantedFaults plants a corrupted decision (a forwarded
// context moved off its request point) and a withheld SP answer; each
// run must report failure and no numbers.
func TestChecksCatchPlantedFaults(t *testing.T) {
	for _, fault := range []string{"shrink", "withhold"} {
		code, res, stderr := runTiny(t, "-workload", "requests", "-inject", fault)
		if code == 0 || res.Correct || len(res.Metrics) != 0 {
			t.Errorf("%s: exit %d, result %+v: the planted fault went unnoticed\n%s", fault, code, res, stderr)
		}
	}
}

func TestCheckDecision(t *testing.T) {
	pt := geo.STPoint{P: geo.Point{X: 100, Y: 100}, T: 1000}
	box := func(w float64, d int64) geo.STBox {
		return geo.STBox{
			Area: geo.Rect{MinX: 100 - w/2, MinY: 100 - w/2, MaxX: 100 + w/2, MaxY: 100 + w/2},
			Time: geo.Interval{Start: 1000 - d/2, End: 1000 + d/2},
		}
	}
	nav := call{user: 1, pt: pt, service: "navigation"}
	for _, tc := range []struct {
		name string
		c    call
		d    decision
		ok   bool
	}{
		{"suppressed", nav, decision{}, true},
		{"inside tolerance", nav, decision{forwarded: true, hk: true, hasCtx: true, ctx: box(1000, 600)}, true},
		{"no context", nav, decision{forwarded: true, hk: true}, false},
		{"excludes point", nav, decision{forwarded: true, hasCtx: true, ctx: geo.STBox{
			Area: geo.Rect{MinX: 200, MinY: 200, MaxX: 300, MaxY: 300},
			Time: geo.Interval{Start: 900, End: 1100},
		}}, false},
		{"wider than tolerance", nav, decision{forwarded: true, hk: true, hasCtx: true, ctx: box(3000, 600)}, false},
		{"wide without hk", nav, decision{forwarded: true, hasCtx: true, ctx: box(3000, 600)}, true},
		{"unlimited service", call{user: 1, pt: pt, service: "news"}, decision{forwarded: true, hk: true, hasCtx: true, ctx: box(9000, 9000)}, true},
	} {
		if err := checkDecision(tc.c, tc.d); (err == nil) != tc.ok {
			t.Errorf("%s: checkDecision = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
