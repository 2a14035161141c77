package ts

import (
	"bytes"
	"strings"
	"testing"

	"histanon/internal/obs"
	"histanon/internal/tgran"
)

// TestAuditReplayMatchesLiveAchievedK pins the observability layer's
// core consistency property: replaying the audit log rebuilds exactly
// the achieved-k histogram the live /metrics endpoint reported.
func TestAuditReplayMatchesLiveAchievedK(t *testing.T) {
	s, _ := newServer(t, Config{DefaultPolicy: Policy{K: 3}})
	var buf bytes.Buffer
	s.Obs.SetAudit(obs.NewAuditLog(&buf))
	s.Obs.Tracer.SetSampleRate(1)

	if err := s.AddLBQIDSpec(0, commuteLBQID); err != nil {
		t.Fatal(err)
	}
	seedCrowd(s, 8, 5)
	for day := int64(0); day < 5; day++ {
		issuerDay(s, day)
	}
	if err := s.Obs.AuditSink().Flush(); err != nil {
		t.Fatal(err)
	}

	live := s.Obs.AchievedK
	if live.Count() == 0 {
		t.Fatal("workload produced no generalized requests")
	}
	replayed, err := obs.ReplayAchievedK(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReplayAchievedK: %v", err)
	}
	if replayed.Count() != live.Count() {
		t.Fatalf("replayed %d observations, live %d", replayed.Count(), live.Count())
	}
	lc, rc := live.BucketCounts(), replayed.BucketCounts()
	for i := range lc {
		if lc[i] != rc[i] {
			t.Fatalf("bucket %d: live %d, replayed %d\nlive %v\nreplayed %v",
				i, lc[i], rc[i], lc, rc)
		}
	}
}

func TestAuditRotationEvents(t *testing.T) {
	s, _ := newServer(t, Config{DefaultPolicy: Policy{K: 2}})
	var buf bytes.Buffer
	s.Obs.SetAudit(obs.NewAuditLog(&buf))

	if err := s.AddLBQIDSpec(0, commuteLBQID); err != nil {
		t.Fatal(err)
	}
	seedCrowd(s, 8, 10)
	for day := int64(0); day < 10; day++ {
		issuerDay(s, day)
	}
	s.Obs.AuditSink().Flush()

	events, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rotations := 0
	for _, e := range events {
		if e.Kind != obs.KindRotation {
			continue
		}
		rotations++
		if e.OldPseudonym == "" || e.NewPseudonym == "" || e.OldPseudonym == e.NewPseudonym {
			t.Fatalf("rotation event lacks a real pseudonym change: %+v", e)
		}
		if e.Zone == "" {
			t.Fatalf("rotation event lacks a zone: %+v", e)
		}
	}
	if got := s.Counters.Get("unlinkings"); int(got) != rotations {
		t.Fatalf("server counted %d rotations, audit log has %d", got, rotations)
	}
}

// TestMetricsRegistryExposition checks that the server's registry emits
// every documented metric family and that sampled spans feed the
// per-stage latency histograms.
func TestMetricsRegistryExposition(t *testing.T) {
	s, _ := newServer(t, Config{DefaultPolicy: Policy{K: 3}})
	s.Obs.Tracer.SetSampleRate(1)
	if err := s.AddLBQIDSpec(0, commuteLBQID); err != nil {
		t.Fatal(err)
	}
	seedCrowd(s, 8, 1)
	issuerDay(s, 0)

	var b strings.Builder
	if err := s.MetricsRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, name := range obs.MetricNames() {
		if !strings.Contains(out, "# TYPE "+name+" ") {
			t.Fatalf("exposition lacks family %s:\n%s", name, out)
		}
	}
	// Sampled requests must have produced span and stage-latency data.
	if s.Obs.Tracer.Sampled() == 0 {
		t.Fatal("no spans sampled at rate 1")
	}
	if !strings.Contains(out, `histanon_stage_duration_seconds_bucket{le="1e-06",stage="lbqid_match"}`) {
		t.Fatalf("per-stage histogram series missing:\n%s", out)
	}
	if !strings.Contains(out, `histanon_ts_events_total{event="requests"} 4`) {
		t.Fatalf("requests counter missing or wrong:\n%s", out)
	}
	// Registering is idempotent: a second call returns the same registry.
	if s.MetricsRegistry() != s.MetricsRegistry() {
		t.Fatal("MetricsRegistry must be a singleton")
	}
}

// TestStageLapsByTier pins the two collection tiers of a request span:
// a head-sampled span laps every stage its request reaches, Algorithm
// 1's phases included, and a tail-rescued span laps none.
func TestStageLapsByTier(t *testing.T) {
	t.Run("head", func(t *testing.T) {
		s, _ := newServer(t, Config{DefaultPolicy: Policy{K: 3}})
		s.Obs.Tracer.SetSampleRate(1)
		if err := s.AddLBQIDSpec(0, commuteLBQID); err != nil {
			t.Fatal(err)
		}
		seedCrowd(s, 8, 5)
		for day := int64(0); day < 5; day++ {
			issuerDay(s, day)
		}
		var total [obs.NumStages]int64
		generalized := 0
		for _, sp := range s.Obs.Tracer.Spans() {
			if sp.Generalized {
				generalized++
			}
			for st, ns := range sp.StageNs {
				total[st] += ns
			}
		}
		if generalized < 10 {
			t.Fatalf("only %d generalized requests", generalized)
		}
		for _, st := range []obs.Stage{obs.StageMatch, obs.StageKNN, obs.StageBox, obs.StageTolerance, obs.StageForward} {
			if total[st] <= 0 {
				t.Errorf("stage %s lapped %d ns over %d generalized requests", st, total[st], generalized)
			}
		}

		// A request that unlinks also laps the unlink stage.
		u, send := unlinkServer(t)
		u.Obs.Tracer.SetSampleRate(1)
		if d := send(); !d.Unlinked {
			t.Fatalf("setup request did not unlink: %+v", d)
		}
		spans := u.Obs.Tracer.Spans()
		if sp := spans[len(spans)-1]; !sp.Unlinked || sp.StageNs[obs.StageUnlink] <= 0 {
			t.Errorf("unlinking span lapped %d ns of unlink: %+v", sp.StageNs[obs.StageUnlink], sp)
		}
	})

	// With a head rate so low that the sampler retains none of these
	// requests, a suppressed request is still collected and rescued by
	// the tail sampler, with its stage laps all zero.
	t.Run("tail", func(t *testing.T) {
		cases := []struct {
			name  string
			keep  string
			setup func() *Server
		}{{
			name: "degraded", keep: obs.KeepDegraded,
			setup: func() *Server {
				s := New(Config{DefaultPolicy: Policy{K: 3}}, refusingOutbox{})
				seedCrowd(s, 8, 1)
				return s
			},
		}, {
			name: "at_risk", keep: obs.KeepDenied,
			setup: func() *Server {
				s, _ := newServer(t, Config{DefaultPolicy: Policy{K: 5, SuppressAtRisk: true}})
				return s
			},
		}}
		for _, c := range cases {
			s := c.setup()
			if err := s.AddLBQIDSpec(0, commuteLBQID); err != nil {
				t.Fatal(err)
			}
			s.Obs.Tracer.SetSampleRate(1e-6)
			d := s.Request(0, pt(50, 50, at(0, 7*tgran.Hour+600)), "navigation", nil)
			if !d.Generalized || !d.Suppressed {
				t.Fatalf("%s: request was not generalized and suppressed: %+v", c.name, d)
			}
			spans := s.Obs.Tracer.Spans()
			if len(spans) != 1 || spans[0].KeepReason != c.keep {
				t.Fatalf("%s: want one span kept as %q, got %+v", c.name, c.keep, spans)
			}
			if spans[0].StageNs != ([obs.NumStages]int64{}) {
				t.Errorf("%s: tail-rescued span lapped stages: %v", c.name, spans[0].StageNs)
			}
		}
	})
}
