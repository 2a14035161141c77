package ts

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"histanon/internal/generalize"
	"histanon/internal/mixzone"
	"histanon/internal/obs"
	"histanon/internal/phl"
	"histanon/internal/storage"
	"histanon/internal/tgran"
	"histanon/internal/wire"
)

// refusingOutbox refuses every admission, as a full delivery queue
// does.
type refusingOutbox struct{}

func (refusingOutbox) TryDeliverTraced(*wire.Request, obs.TraceContext) error {
	return refusal("queue_full")
}

// refusal is an admission error that names its audit reason.
type refusal string

func (r refusal) Error() string  { return "refused: " + string(r) }
func (r refusal) Reason() string { return string(r) }

// onceLBQID is exposed by its first matching request.
const onceLBQID = `
lbqid "home" {
    element "Home" area [0,200]x[0,200] time [06:30,09:00]
    recurrence 1.Days
}`

// unlinkServer is TestToleranceFailureTriggersUnlink's setup: a 10 m
// tolerance no box can meet, and neighbors whose diverging paths let
// the server plan an on-demand mix zone. It returns the server and the
// request that fails generalization and unlinks.
func unlinkServer(t *testing.T) (*Server, func() Decision) {
	s, _ := newServer(t, Config{
		DefaultPolicy: Policy{K: 3},
		Services: map[string]ServiceSpec{
			"navigation": {Name: "navigation", Tolerance: generalize.Tolerance{
				MaxWidth: 10, MaxHeight: 10, MaxDuration: 10,
			}},
		},
		OnDemand: mixzone.OnDemand{Quiet: 300, Divergence: mixzone.Divergence{MinAngle: 0.3}},
	})
	if err := s.AddLBQIDSpec(0, commuteLBQID); err != nil {
		t.Fatal(err)
	}
	base := at(0, 7*tgran.Hour)
	dirs := [][2]float64{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	for u := 1; u <= 4; u++ {
		d := dirs[u-1]
		for step := int64(0); step <= 12; step++ {
			s.RecordLocation(phl.UserID(u),
				pt(500*d[0]+float64(step)*120*d[0], 500*d[1]+float64(step)*120*d[1], base+step*120))
		}
	}
	return s, func() Decision { return s.Request(0, pt(50, 50, base+600), "navigation", nil) }
}

// TestEveryExitFeedsEverySignalOneDecision drives one request through
// each exit of RequestTraced, with every signal on (sampling 1, the SLO
// engine, audit), and checks that the counters, the histograms, the SLO
// windows, the span and the audit log all report the Decision the
// caller got back.
func TestEveryExitFeedsEverySignalOneDecision(t *testing.T) {
	cases := []struct {
		name string
		// setup builds a server and returns the request under test.
		setup func(t *testing.T) (*Server, func() Decision)
		// exit reports whether the decision took the case's exit.
		exit func(d Decision) bool
	}{{
		name: "ondemand_suppression",
		setup: func(t *testing.T) (*Server, func() Decision) {
			s, first := unlinkServer(t)
			if d := first(); !d.Unlinked {
				t.Fatalf("setup request did not unlink: %+v", d)
			}
			return s, func() Decision {
				return s.Request(0, pt(55, 50, at(0, 7*tgran.Hour)+700), "navigation", nil)
			}
		},
		exit: func(d Decision) bool { return d.Suppressed && !d.Generalized && !d.Degraded },
	}, {
		name: "at_risk_suppression",
		setup: func(t *testing.T) (*Server, func() Decision) {
			s, _ := newServer(t, Config{DefaultPolicy: Policy{K: 5, SuppressAtRisk: true}})
			if err := s.AddLBQIDSpec(0, commuteLBQID); err != nil {
				t.Fatal(err)
			}
			return s, func() Decision {
				return s.Request(0, pt(50, 50, at(0, 7*tgran.Hour+600)), "navigation", nil)
			}
		},
		exit: func(d Decision) bool { return d.AtRisk && d.Suppressed && d.Generalized && !d.Degraded },
	}, {
		name: "storage_fault_degrade",
		setup: func(t *testing.T) (*Server, func() Decision) {
			fsys := storage.NewMemFS()
			s, st := tieredServer(t, fsys)
			t.Cleanup(func() { st.Close() })
			s.RecordLocation(1, pt(1, 1, 3000))
			fsys.FailSyncs = errors.New("injected fsync error")
			s.RecordLocation(1, pt(2, 2, 3001))
			fsys.FailSyncs = nil
			return s, func() Decision { return s.Request(0, pt(10, 10, 3100), "svc", nil) }
		},
		exit: func(d Decision) bool { return d.Degraded && d.DegradedReason == "storage_wal_failed" },
	}, {
		name: "admission_degrade",
		setup: func(t *testing.T) (*Server, func() Decision) {
			s := New(Config{DefaultPolicy: Policy{K: 3}}, refusingOutbox{})
			if err := s.AddLBQIDSpec(0, commuteLBQID); err != nil {
				t.Fatal(err)
			}
			seedCrowd(s, 8, 1)
			return s, func() Decision {
				return s.Request(0, pt(50, 50, at(0, 7*tgran.Hour+600)), "navigation", nil)
			}
		},
		exit: func(d Decision) bool {
			return d.Degraded && d.DegradedReason == "queue_full" && d.Generalized && d.HKAnonymity
		},
	}, {
		name: "exact_forward",
		setup: func(t *testing.T) (*Server, func() Decision) {
			s, _ := newServer(t, Config{})
			return s, func() Decision { return s.Request(0, pt(100, 100, 1000), "weather", nil) }
		},
		exit: func(d Decision) bool { return d.Forwarded && !d.Generalized },
	}, {
		name: "generalized_forward",
		setup: func(t *testing.T) (*Server, func() Decision) {
			s, _ := newServer(t, Config{DefaultPolicy: Policy{K: 3}})
			if err := s.AddLBQIDSpec(0, onceLBQID); err != nil {
				t.Fatal(err)
			}
			seedCrowd(s, 8, 1)
			return s, func() Decision {
				return s.Request(0, pt(50, 50, at(0, 7*tgran.Hour+600)), "navigation", nil)
			}
		},
		exit: func(d Decision) bool { return d.Forwarded && d.Generalized && d.HKAnonymity && d.QIDExposed },
	}, {
		name:  "generalized_hk_failure_unlink",
		setup: unlinkServer,
		exit: func(d Decision) bool {
			return d.Forwarded && d.Generalized && !d.HKAnonymity && d.Unlinked
		},
	}}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, send := c.setup(t)
			var buf bytes.Buffer
			s.Obs.SetAudit(obs.NewAuditLog(&buf))
			s.Obs.Tracer.SetSampleRate(1)
			s.SLO.SetEnabled(true)
			before := countersOf(s)
			wasAtRisk := s.AtRisk(0)
			kBefore := s.Obs.AchievedK.BucketCounts()
			areaBefore, intervalBefore := s.Obs.GenAreaM2.Count(), s.Obs.GenIntervalS.Count()
			spansBefore := len(s.Obs.Tracer.Spans())

			d := send()
			if !c.exit(d) {
				t.Fatalf("request took another exit: %+v", d)
			}
			if err := s.Obs.AuditSink().Flush(); err != nil {
				t.Fatal(err)
			}

			// The audit log: one request record when the decision is
			// privacy-relevant, one rotation record per unlinking.
			events, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var reqs, rots []obs.Event
			for _, e := range events {
				switch e.Kind {
				case obs.KindRequest:
					reqs = append(reqs, e)
				case obs.KindRotation:
					rots = append(rots, e)
				}
			}
			relevant := d.Generalized || d.Suppressed || d.Unlinked || d.AtRisk
			if want := b2i(relevant); int64(len(reqs)) != want {
				t.Fatalf("%d request audit records, want %d", len(reqs), want)
			}
			if want := b2i(d.Unlinked); int64(len(rots)) != want {
				t.Fatalf("%d rotation audit records, want %d", len(rots), want)
			}
			var zone string
			if len(rots) > 0 {
				zone = rots[0].Zone
			}
			if d.Suppressed && !d.Generalized && !d.Degraded {
				zone = "ondemand" // suppressed inside the zone a rotation planned
			}
			outcome := obs.OutcomeForwarded
			switch {
			case d.Degraded:
				outcome = obs.OutcomeDegraded
			case d.Suppressed:
				outcome = obs.OutcomeSuppressed
			}
			if relevant {
				e := reqs[0]
				if e.Outcome != outcome || e.Reason != d.DegradedReason || e.Zone != zone ||
					e.HKAnonymity != d.HKAnonymity || e.Unlinked != d.Unlinked || e.AtRisk != d.AtRisk ||
					e.Matched != d.MatchedLBQID || e.TraceID != d.TraceID() || (e.AchievedK > 0) != d.Generalized {
					t.Fatalf("audit record %+v disagrees with decision %+v (want outcome %q, zone %q)", e, d, outcome, zone)
				}
				if released := d.Forwarded && d.Generalized; (e.IntervalS > 0 || e.AreaM2 > 0) && !released {
					t.Fatalf("audit record reports a released context for an unreleased request: %+v", e)
				} else if released && (e.AreaM2 != d.Request.Context.Area.Area() || e.IntervalS != d.Request.Context.Time.Duration()) {
					t.Fatalf("audit extent %v m², %d s; forwarded context %v", e.AreaM2, e.IntervalS, d.Request.Context)
				}
			}

			// The counters: each delta is the decision's tally.
			ondemand := d.Unlinked && strings.HasPrefix(zone, "ondemand")
			attempted := d.Generalized && !d.HKAnonymity
			want := map[string]int64{
				"requests":        1,
				"forwarded":       b2i(d.Forwarded),
				"generalized":     b2i(d.Generalized),
				"hk_failures":     b2i(attempted),
				"unlinkings":      b2i(d.Unlinked),
				"at_risk":         b2i(d.AtRisk && !wasAtRisk),
				"suppressed":      b2i(d.Suppressed),
				"degraded":        b2i(d.Degraded),
				"exposures":       b2i(d.Forwarded && d.QIDExposed),
				"ondemand_zones":  b2i(ondemand),
				"unlink_failures": b2i(attempted && !d.Unlinked),
			}
			after := countersOf(s)
			for _, name := range eventNames {
				if got := after[name] - before[name]; got != want[name] {
					t.Errorf("counter %s moved by %d, the decision tallies %d", name, got, want[name])
				}
			}

			// The histograms: achieved k matches the audit replay, and the
			// extent histograms saw the request only if it was released.
			replayed, err := obs.ReplayAchievedK(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			kAfter := s.Obs.AchievedK.BucketCounts()
			for i := range kAfter {
				kAfter[i] -= kBefore[i]
			}
			if rk := replayed.BucketCounts(); !reflect.DeepEqual(kAfter, rk) {
				t.Fatalf("achieved-k histogram moved by %v, the audit replays %v", kAfter, rk)
			}
			released := b2i(d.Forwarded && d.Generalized)
			if got := s.Obs.GenAreaM2.Count() - areaBefore; got != released {
				t.Fatalf("area histogram counted %d, want %d", got, released)
			}
			if got := s.Obs.GenIntervalS.Count() - intervalBefore; got != released {
				t.Fatalf("interval histogram counted %d, want %d", got, released)
			}

			// The SLO engine: one decision, in every window.
			if got := s.SLO.DecisionsTotal(); got != 1 {
				t.Fatalf("SLO engine counted %d decisions, want 1", got)
			}
			for _, w := range s.SLO.Snapshots(s.SLO.Now()) {
				if w.Decisions != 1 || w.Suppressed != b2i(d.Suppressed) || w.Degraded != b2i(d.Degraded) {
					t.Fatalf("SLO window %s = %+v, decision %+v", w.Name, w, d)
				}
				if got := w.AchievedKHistogram().BucketCounts(); !reflect.DeepEqual(got, replayed.BucketCounts()) {
					t.Fatalf("SLO window %s holds achieved k %v, the audit replays %v", w.Name, got, replayed.BucketCounts())
				}
			}

			// The span: one request span with the decision's outcome.
			spans := s.Obs.Tracer.Spans()
			if len(spans) != spansBefore+1 {
				t.Fatalf("%d spans recorded, want 1", len(spans)-spansBefore)
			}
			sp := spans[len(spans)-1]
			var msgID int64
			if len(reqs) > 0 {
				msgID = reqs[0].MsgID
			} else if d.Request != nil {
				msgID = int64(d.Request.ID)
			}
			if sp.Outcome != outcome || sp.Generalized != d.Generalized || sp.Unlinked != d.Unlinked ||
				sp.AtRisk != d.AtRisk || sp.TraceID != d.TraceID() || sp.MsgID != msgID {
				t.Fatalf("span %+v disagrees with decision %+v (want outcome %q, msgid %d)", sp, d, outcome, msgID)
			}
			shed := len(sp.Events) == 1 && sp.Events[0].Name == "shed_"+d.DegradedReason
			if d.Degraded != shed || (!d.Degraded && len(sp.Events) != 0) {
				t.Fatalf("span events %+v for decision %+v", sp.Events, d)
			}
		})
	}
}

func countersOf(s *Server) map[string]int64 {
	m := map[string]int64{}
	for _, name := range eventNames {
		m[name] = s.Counters.Get(name)
	}
	return m
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
