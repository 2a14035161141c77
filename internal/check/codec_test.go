package check

import (
	"strings"
	"testing"
)

// TestCodecDifferential sweeps 200 seeded workloads through both legs,
// the JSON API and the binary batch channel. Every leg pair must agree
// exactly on decisions, forwarded requests, responses, audit logs
// (trace_ids included), achieved-k buckets and counters — no seed may
// be skipped.
func TestCodecDifferential(t *testing.T) {
	const workloads = 200
	forwarded, responses := 0, 0
	for seed := int64(1); seed <= workloads; seed++ {
		w := NewCodecWorkload(CodecWorkloadConfig{
			Seed:      seed,
			Users:     8 + int(seed%24),
			Locations: 120 + int(seed%5)*40,
			Calls:     20 + int(seed%3)*10,
			TimeScale: 0.25 * float64(1+seed%4),
		})
		js := runJSONLeg(w, false)
		bin := runBinaryLeg(w, false)
		if divs := diffCodecRuns(js, bin); len(divs) > 0 {
			for _, d := range divs[:min(len(divs), 10)] {
				t.Errorf("seed %d: %s/%s query %d: %s", seed, d.Index, d.Kind, d.Query, d.Detail)
			}
			t.Fatalf("seed %d: %d codec divergences", seed, len(divs))
		}
		forwarded += len(js.requests)
		responses += len(js.responses)
		if calls := len(filterCalls(w.Ops)); len(js.decisions) != calls {
			t.Fatalf("seed %d: %d decisions for %d calls", seed, len(js.decisions), calls)
		}
	}
	// Teeth check: a sweep where nothing is ever forwarded (or answered)
	// would pass vacuously.
	if forwarded == 0 || responses == 0 {
		t.Fatalf("sweep forwarded %d requests, delivered %d responses — workloads are toothless", forwarded, responses)
	}
	t.Logf("200 seeds: %d forwarded requests, %d responses compared", forwarded, responses)
}

func filterCalls(ops []CodecOp) []CodecOp {
	var out []CodecOp
	for _, op := range ops {
		if op.Call {
			out = append(out, op)
		}
	}
	return out
}

// TestCodecConcurrent replays workloads with concurrent crowd ingest:
// the JSON leg posts each user's locations from its own goroutine while
// the binary leg posts each user's stream, in batches, from its own
// goroutine into POST /v1/batch. Per-user order is preserved, and tie-free
// trajectories make the final state independent of cross-user
// interleaving, so the two legs must still agree exactly. Run under
// -race, the interleaving is the test.
func TestCodecConcurrent(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= seeds; seed++ {
		w := NewCodecWorkload(CodecWorkloadConfig{
			Seed:      1000 + seed,
			Users:     12 + int(seed%8),
			Locations: 240,
			Calls:     24,
		})
		if divs := diffCodecRuns(runJSONLeg(w, true), runBinaryLeg(w, true)); len(divs) > 0 {
			for _, d := range divs[:min(len(divs), 10)] {
				t.Errorf("seed %d: %s/%s query %d: %s", seed, d.Index, d.Kind, d.Query, d.Detail)
			}
			t.Fatalf("seed %d: %d divergences under concurrent ingest", seed, len(divs))
		}
	}
}

// TestCodecOracleDetectsDivergence proves the comparison has teeth:
// every observable channel, when perturbed, must be flagged.
func TestCodecOracleDetectsDivergence(t *testing.T) {
	w := NewCodecWorkload(CodecWorkloadConfig{Seed: 7})
	js := runJSONLeg(w, false)
	if len(js.decisions) == 0 || len(js.requests) == 0 ||
		len(js.traceIDs) == 0 || len(js.responses) == 0 {
		t.Fatalf("baseline run is empty: %d decisions %d requests %d trace ids %d responses",
			len(js.decisions), len(js.requests), len(js.traceIDs), len(js.responses))
	}

	sabotage := []struct {
		kind string
		mut  func(r *codecRun)
	}{
		{"decision", func(r *codecRun) { r.decisions[0] += " tampered" }},
		{"request", func(r *codecRun) { r.requests[len(r.requests)-1] = "req 0" }},
		{"response", func(r *codecRun) { r.responses[0] = strings.ToUpper(r.responses[0]) }},
		{"audit", func(r *codecRun) { r.audit = strings.Replace(r.audit, `"kind"`, `"KIND"`, 1) }},
		{"audit-trace-id", func(r *codecRun) { r.traceIDs[0] = "deadbeef" }},
		{"achieved-k", func(r *codecRun) { r.achievedK[0]++ }},
		{"counters", func(r *codecRun) { r.counters += " bogus=1" }},
	}
	for _, s := range sabotage {
		bad := &codecRun{
			leg:       js.leg,
			decisions: append([]string(nil), js.decisions...),
			requests:  append([]string(nil), js.requests...),
			responses: append([]string(nil), js.responses...),
			audit:     js.audit,
			traceIDs:  append([]string(nil), js.traceIDs...),
			achievedK: append([]int64(nil), js.achievedK...),
			counters:  js.counters,
		}
		s.mut(bad)
		divs := diffCodecRuns(js, bad)
		found := false
		for _, d := range divs {
			if d.Kind == s.kind {
				found = true
			}
		}
		if !found {
			t.Errorf("sabotaged %s went undetected (got %v)", s.kind, divs)
		}
	}

	// And an honest self-comparison is clean.
	if divs := diffCodecRuns(js, runJSONLeg(w, false)); len(divs) != 0 {
		t.Fatalf("json leg does not agree with itself: %v", divs)
	}
}

// TestCodecWorkloadDeterminism pins that a workload is a pure function
// of its config — the property every comparison above leans on.
func TestCodecWorkloadDeterminism(t *testing.T) {
	a := NewCodecWorkload(CodecWorkloadConfig{Seed: 42})
	b := NewCodecWorkload(CodecWorkloadConfig{Seed: 42})
	if len(a.Locs) != len(b.Locs) || len(a.Ops) != len(b.Ops) {
		t.Fatalf("lengths differ: %d/%d vs %d/%d", len(a.Locs), len(a.Ops), len(b.Locs), len(b.Ops))
	}
	for i := range a.Ops {
		x, y := a.Ops[i], b.Ops[i]
		if x.Call != y.Call || x.User != y.User || x.P != y.P || x.Service != y.Service ||
			x.Parent != y.Parent {
			t.Fatalf("op %d differs: %+v vs %+v", i, x, y)
		}
	}
	c := NewCodecWorkload(CodecWorkloadConfig{Seed: 43})
	same := len(a.Ops) == len(c.Ops)
	if same {
		for i := range a.Ops {
			if a.Ops[i].P != c.Ops[i].P {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 generated identical schedules")
	}
}
