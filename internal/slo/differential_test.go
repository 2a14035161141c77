// Differential test: the SLO engine's windowed achieved-k aggregates
// must agree bit-exactly with obs.ReplayAchievedK over the audit log for
// the same logical interval. Both sides observe the same decision stream
// from a real server pipeline — the engine through the TS's finish, the
// replay through the KindRequest audit records — so any divergence means
// the live aggregation has drifted from the audited ground truth.
//
// External test package: sim imports ts which imports slo.

package slo_test

import (
	"bytes"
	"testing"

	"histanon/internal/metrics"
	"histanon/internal/obs"
	"histanon/internal/phl"
	"histanon/internal/sim"
	"histanon/internal/slo"
)

func TestWindowedAchievedKMatchesAuditReplay(t *testing.T) {
	server := sim.NewThroughputServer(sim.ThroughputClients)
	var audit bytes.Buffer
	server.Obs.SetAudit(obs.NewAuditLog(&audit))
	server.SLO.SetEnabled(true)

	// Drive the full pipeline: every request is monitored, generalized
	// and forwarded, so both the audit log and the engine see it. The
	// workload timestamps are monotone (i second steps within a day).
	const n = 3000
	for i := 0; i < n; i++ {
		sim.ThroughputRequest(server, phl.UserID(i%sim.ThroughputClients), i)
	}
	if err := server.Obs.AuditSink().Flush(); err != nil {
		t.Fatal(err)
	}
	if server.SLO.DecisionsTotal() == 0 {
		t.Fatal("the engine observed nothing")
	}

	// Pick an interval on bucket boundaries inside the longest window's
	// reach from the engine's logical now.
	now := server.SLO.Now()
	start, end := now-120, now-30
	snap, ok := server.SLO.IntervalSnapshot(start, end)
	if !ok {
		t.Fatalf("IntervalSnapshot(%d, %d) rejected", start, end)
	}
	if snap.Decisions == 0 {
		t.Fatalf("interval [%d,%d) is empty; now=%d", start, end, now)
	}

	// Replay the audit log for the same interval: the same filter
	// ReplayAchievedK applies (KindRequest with AchievedK>0), restricted
	// to [start, end).
	events, err := obs.ReadEvents(bytes.NewReader(audit.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	replayed := metrics.NewHistogram(obs.AchievedKBuckets())
	var decisions int64
	for _, e := range events {
		if e.T < start || e.T >= end {
			continue
		}
		if e.Kind == obs.KindRequest {
			decisions++
			if e.AchievedK > 0 {
				replayed.Observe(float64(e.AchievedK))
			}
		}
	}

	// Bit-exact agreement, bucket for bucket.
	got := snap.AchievedKHistogram().BucketCounts()
	want := replayed.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count mismatch: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("bucket %d: engine=%d replay=%d\nengine: %v\nreplay: %v",
				i, got[i], want[i], got, want)
		}
	}
	if snap.Decisions != decisions {
		t.Fatalf("interval decisions: engine=%d audit=%d", snap.Decisions, decisions)
	}

	// The full-log replay (the existing offline tool) must agree with the
	// engine's lifetime view too: every audited achieved-k was observed.
	full, err := obs.ReplayAchievedK(bytes.NewReader(audit.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if full.Count() != server.SLO.DecisionsTotal() {
		t.Fatalf("lifetime: audit replay holds %d, engine observed %d",
			full.Count(), server.SLO.DecisionsTotal())
	}
}

// TestEngineOffUnderSameWorkload pins the off-path contract: with the
// engine disabled the same workload records nothing — the one-atomic-load
// discipline has no side effects.
func TestEngineOffUnderSameWorkload(t *testing.T) {
	server := sim.NewThroughputServer(sim.ThroughputClients)
	for i := 0; i < 200; i++ {
		sim.ThroughputRequest(server, phl.UserID(i%sim.ThroughputClients), i)
	}
	if got := server.SLO.DecisionsTotal(); got != 0 {
		t.Fatalf("disabled engine observed %d decisions", got)
	}
	if server.SLO.Now() != -1 {
		t.Fatalf("disabled engine advanced its clock to %d", server.SLO.Now())
	}
}

// TestCanaryTracksOfflineAttack wires a canary to the live server and
// checks the link probability it reports against the offline
// LT-consistency attack run over the same captured series — the
// acceptance bound from the issue (identical candidate sets, so the
// numbers must match exactly, not just within tolerance).
func TestCanaryTracksOfflineAttack(t *testing.T) {
	server := sim.NewThroughputServer(sim.ThroughputClients)
	store, ok := server.Store().(slo.AttackStore)
	if !ok {
		t.Fatal("server store does not expose the attack read")
	}
	canary := slo.NewCanary(slo.CanaryOptions{Store: store})
	server.SLO.AttachCanary(canary)
	server.SLO.SetEnabled(true)

	for i := 0; i < 500; i++ {
		sim.ThroughputRequest(server, phl.UserID(i%sim.ThroughputClients), i)
	}
	if canary.Captured() == 0 {
		t.Fatal("the canary captured nothing from the decision path")
	}
	res, ok := canary.Probe()
	if !ok {
		t.Fatal("probe skipped")
	}
	if res.Attacked == 0 {
		t.Fatalf("probe attacked nothing: %+v", res)
	}
	// The requests are k=5-generalized over a 60-user crowd: the attack
	// must not fully re-identify anyone, and the link probability must
	// stay at or below 1/k.
	if res.Identified != 0 {
		t.Fatalf("canary re-identified %d series under k=5 generalization", res.Identified)
	}
	if res.LinkProbability > 1.0/5+1e-9 {
		t.Fatalf("LinkProbability = %g, want <= 1/5", res.LinkProbability)
	}
	if res.AnonSetMean < 5 {
		t.Fatalf("AnonSetMean = %g, want >= 5 under k=5", res.AnonSetMean)
	}
}
