// The chaos invariant suite: the paper's privacy guarantees checked
// under injected failure across a large family of seeded fault
// schedules. Every schedule replays from its seed, so a failure
// reported here reproduces with `-run 'TestChaosSchedules/seed=N'`.
//
// The invariants, per run:
//
//  1. Box enclosure — every forwarded request is well-formed
//     (wire.Request.Validate) and its context contains the exact query
//     point the TS received.
//  2. Tolerance — every forwarded context respects the service's
//     coarseness constraint (within a 1e-6 relative epsilon).
//  3. Historical k-anonymity — the generalized contexts exposed under
//     one (user, pseudonym) keep anon.HistoricalLevel ≥ k.
//  4. Pseudonym hygiene — a retired pseudonym is never used again
//     within a server instance.
//  5. Delivery soundness — every request the SP received is one the TS
//     forwarded, with an identical context and pseudonym.
//  6. Fail-closed accounting — degraded suppressions and asynchronous
//     drops are conserved across counters, outbox events and the audit
//     log: nothing is lost silently.
//  7. Trace completeness — at 1/1000 head sampling the tail sampler
//     still retains a full trace for every anomalous request: degraded
//     and suppressed decisions have retained request spans (with the
//     shed event naming the degrade reason), and every audited
//     asynchronous drop has a retained delivery span carrying
//     queue-wait and per-attempt timings.
package chaos_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"histanon/internal/anon"
	"histanon/internal/chaos"
	"histanon/internal/generalize"
	"histanon/internal/geo"
	"histanon/internal/obs"
	"histanon/internal/phl"
	"histanon/internal/resilience"
	"histanon/internal/stindex"
	"histanon/internal/storage"
	"histanon/internal/tgran"
	"histanon/internal/ts"
	"histanon/internal/wire"
)

const tolEps = 1e-6

const commuteLBQID = `
lbqid "commute" {
    element "Home"   area [0,200]x[0,200]       time [06:30,09:00]
    element "Office" area [1800,2200]x[0,200]   time [07:00,11:00]
    element "Office" area [1800,2200]x[0,200]   time [15:30,19:00]
    element "Home"   area [0,200]x[0,200]       time [16:00,21:00]
    recurrence 3.Weekdays * 2.Weeks
}`

func pt(x, y float64, t int64) geo.STPoint {
	return geo.STPoint{P: geo.Point{X: x, Y: y}, T: t}
}

func at(day, sod int64) int64 { return day*tgran.Day + sod }

// schedule is one seeded fault configuration.
type schedule struct {
	seed       uint64
	faults     chaos.Faults
	queueSize  int
	workers    int
	deadline   time.Duration
	breaker    resilience.BreakerConfig
	slowIndex  bool
	concurrent bool
	restartMid bool
}

// mkSchedule derives a fault schedule from its seed — a pure function,
// so every run replays.
func mkSchedule(seed uint64) schedule {
	s := schedule{
		seed:      seed,
		queueSize: []int{4, 16, 64}[seed%3],
		workers:   1 + int(seed%3),
		deadline:  5 * time.Second,
		breaker: resilience.BreakerConfig{
			FailureThreshold: 3,
			OpenFor:          10 * time.Second,
		},
		slowIndex:  seed%7 == 0,
		concurrent: seed%2 == 0,
		restartMid: seed%4 == 1,
	}
	s.faults = chaos.Faults{
		Seed:   seed,
		PError: []float64{0, 0.1, 0.3, 0.6}[seed%4],
	}
	if seed%3 == 0 {
		s.faults.Outages = [][2]int64{{5, 25}}
	}
	if seed%5 == 0 {
		s.faults.PLatency = 0.5
		s.faults.Latency = 2 * time.Second
	}
	return s
}

// decisionRecord pairs a decision with the request that produced it.
type decisionRecord struct {
	user  phl.UserID
	point geo.STPoint
	dec   ts.Decision
}

// rotationRecord is one observed pseudonym rotation.
type rotationRecord struct {
	user     phl.UserID
	old, new wire.Pseudonym
}

// recorder implements ts.Notifier, collecting rotations.
type recorder struct {
	mu   sync.Mutex
	rots []rotationRecord
}

func (r *recorder) AtRisk(u phl.UserID, reason string) {}

func (r *recorder) Unlinked(u phl.UserID, old, new wire.Pseudonym) {
	r.mu.Lock()
	r.rots = append(r.rots, rotationRecord{u, old, new})
	r.mu.Unlock()
}

// run is one complete chaos run's observable state.
type run struct {
	srv       *ts.Server
	outbox    *resilience.Outbox
	spx       *chaos.SP
	clock     *chaos.Clock
	notes     *recorder
	auditBuf  *bytes.Buffer
	audit     *obs.AuditLog
	decisions []decisionRecord
	decMu     sync.Mutex
}

// newRun assembles a trusted server behind a chaos SP for the schedule.
// Its PHL lives in st when st is non-nil (the crash-recovery path), in
// memory otherwise.
func newRun(t *testing.T, sc schedule, st *storage.TieredStore) *run {
	t.Helper()
	r := &run{
		clock:    chaos.NewClock(time.Unix(0, 0)),
		notes:    &recorder{},
		auditBuf: &bytes.Buffer{},
	}
	r.audit = obs.NewAuditLog(r.auditBuf)
	r.spx = chaos.NewSP(sc.faults, r.clock)
	r.outbox = resilience.NewOutbox(r.spx, resilience.Options{
		QueueSize:   sc.queueSize,
		Workers:     sc.workers,
		Deadline:    sc.deadline,
		MaxAttempts: 3,
		Breaker:     sc.breaker,
		Seed:        int64(sc.seed) | 1,
		Clock:       r.clock,
		Audit:       r.audit.Log,
	})
	cfg := ts.Config{
		DefaultPolicy: ts.Policy{K: 3},
		Services: map[string]ts.ServiceSpec{
			"navigation": {Tolerance: generalize.Tolerance{
				MaxWidth: 4000, MaxHeight: 4000, MaxDuration: 4 * tgran.Hour,
			}},
		},
	}
	if st != nil {
		cfg.Store = st
	}
	if sc.slowIndex {
		// The tiered store is its own index; a grid beside it would come
		// back empty after a restart.
		var inner stindex.Index = stindex.NewGrid(500, 900)
		if st != nil {
			inner = st
		}
		cfg.Index = &chaos.SlowIndex{Inner: inner, Delay: 50 * time.Microsecond}
	}
	r.srv = ts.New(cfg, r.outbox)
	r.srv.SetNotifier(r.notes)
	r.srv.Obs.SetAudit(r.audit)
	// Tracing at 1/1000 head sampling: invariant 7 relies on the tail
	// sampler, not head luck, to retain every anomalous trace.
	r.srv.Obs.Tracer.SetSampleRate(0.001)
	r.outbox.SetSpanSink(r.srv.Obs)
	if err := r.srv.AddLBQIDSpec(0, commuteLBQID); err != nil {
		t.Fatal(err)
	}
	return r
}

// record runs one request and collects the decision.
func (r *run) record(u phl.UserID, p geo.STPoint, service string) {
	dec := r.srv.Request(u, p, service, nil)
	r.decMu.Lock()
	r.decisions = append(r.decisions, decisionRecord{u, p, dec})
	r.decMu.Unlock()
}

// seedCrowd records commuting neighbors (users 1..n-1) so anonymity
// sets are non-trivial; the issuer is user 0.
func seedCrowd(s *ts.Server, n int, fromDay, toDay int64) {
	for day := fromDay; day < toDay; day++ {
		if day%7 >= 5 {
			continue
		}
		for u := 1; u < n; u++ {
			dx, dy := float64(u*7), float64(u*5)
			s.RecordLocation(phl.UserID(u), pt(50+dx, 50+dy, at(day, 7*tgran.Hour+int64(u)*30)))
			s.RecordLocation(phl.UserID(u), pt(2000+dx, 50+dy, at(day, 8*tgran.Hour+int64(u)*30)))
			s.RecordLocation(phl.UserID(u), pt(2000+dx, 50+dy, at(day, 17*tgran.Hour+int64(u)*30)))
			s.RecordLocation(phl.UserID(u), pt(50+dx, 50+dy, at(day, 18*tgran.Hour+int64(u)*30)))
		}
	}
}

// issuerDay issues user 0's four commute requests for one day.
func (r *run) issuerDay(day int64) {
	for _, p := range []geo.STPoint{
		pt(50, 50, at(day, 7*tgran.Hour+600)),
		pt(2000, 50, at(day, 8*tgran.Hour+600)),
		pt(2000, 50, at(day, 17*tgran.Hour)),
		pt(50, 50, at(day, 18*tgran.Hour)),
	} {
		r.record(0, p, "navigation")
	}
}

// workload drives days [fromDay,toDay) of traffic: the issuer's commute
// plus the crowd's plain weather requests (concurrently when the
// schedule says so).
func (r *run) workload(sc schedule, fromDay, toDay int64) {
	seedCrowd(r.srv, 8, fromDay, toDay)
	for day := fromDay; day < toDay; day++ {
		if day%7 >= 5 {
			continue
		}
		if sc.concurrent {
			var wg sync.WaitGroup
			wg.Add(4)
			for u := 1; u <= 4; u++ {
				u := u
				go func() {
					defer wg.Done()
					r.record(phl.UserID(u), pt(500+float64(u), 500, at(day, 12*tgran.Hour+int64(u))), "weather")
				}()
			}
			r.issuerDay(day)
			wg.Wait()
		} else {
			r.issuerDay(day)
			for u := 1; u <= 2; u++ {
				r.record(phl.UserID(u), pt(500+float64(u), 500, at(day, 12*tgran.Hour+int64(u))), "weather")
			}
		}
	}
}

// finish drains the outbox and flushes the audit log.
func (r *run) finish(t *testing.T) {
	t.Helper()
	r.outbox.Close()
	if err := r.audit.Flush(); err != nil {
		t.Fatalf("audit flush: %v", err)
	}
}

// checkInvariants asserts every privacy and accounting invariant over a
// finished run.
func checkInvariants(t *testing.T, r *run, k int) {
	t.Helper()
	store := r.srv.Store()
	tolByService := map[string]generalize.Tolerance{
		"navigation": {MaxWidth: 4000, MaxHeight: 4000, MaxDuration: 4 * tgran.Hour},
	}

	forwardedByID := map[wire.MsgID]*wire.Request{}
	groups := map[phl.UserID]map[wire.Pseudonym][]geo.STBox{}
	degraded := 0
	for _, d := range r.decisions {
		if d.dec.Degraded {
			degraded++
			if !d.dec.Suppressed {
				t.Fatalf("degraded decision not suppressed: %+v", d.dec)
			}
			if d.dec.Forwarded || d.dec.Request != nil {
				t.Fatalf("degraded decision carries a forward: %+v", d.dec)
			}
			if d.dec.DegradedReason == "" {
				t.Fatalf("degraded decision lacks a reason: %+v", d.dec)
			}
		}
		if !d.dec.Forwarded {
			continue
		}
		req := d.dec.Request
		if req == nil {
			t.Fatalf("forwarded decision without request: %+v", d.dec)
		}
		forwardedByID[req.ID] = req

		// Invariant 1: a well-formed request whose box encloses the
		// query point.
		if err := req.Validate(); err != nil {
			t.Fatalf("forwarded a malformed request %v: %v", req, err)
		}
		if !req.Context.Contains(d.point) {
			t.Fatalf("forwarded context %v excludes the query point %v", req.Context, d.point)
		}
		// Invariant 2: tolerance.
		if tol, ok := tolByService[req.Service]; ok {
			b := req.Context
			if tol.MaxWidth > 0 && b.Area.Width() > tol.MaxWidth*(1+tolEps) {
				t.Fatalf("context width %v exceeds tolerance %v", b.Area.Width(), tol.MaxWidth)
			}
			if tol.MaxHeight > 0 && b.Area.Height() > tol.MaxHeight*(1+tolEps) {
				t.Fatalf("context height %v exceeds tolerance %v", b.Area.Height(), tol.MaxHeight)
			}
			if tol.MaxDuration > 0 && float64(b.Time.Duration()) > float64(tol.MaxDuration)*(1+tolEps) {
				t.Fatalf("context duration %v exceeds tolerance %v", b.Time.Duration(), tol.MaxDuration)
			}
		}
		if d.dec.Generalized && d.dec.HKAnonymity {
			m := groups[d.user]
			if m == nil {
				m = map[wire.Pseudonym][]geo.STBox{}
				groups[d.user] = m
			}
			m[req.Pseudonym] = append(m[req.Pseudonym], req.Context)
		}
	}

	// Invariant 3: historical k-anonymity per (user, pseudonym).
	for u, byPseud := range groups {
		for pseud, boxes := range byPseud {
			if lvl := anon.HistoricalLevel(store, u, boxes); lvl < k {
				t.Fatalf("user %d pseudonym %s: HistoricalLevel = %d < %d over %d boxes",
					u, pseud, lvl, k, len(boxes))
			}
		}
	}

	// Invariant 4: pseudonym hygiene. A rotation retires its old
	// pseudonym; nothing may use or re-mint it afterwards. The
	// per-user pseudonym sequence over forwarded requests must never
	// revisit an abandoned value.
	seen := map[phl.UserID]map[wire.Pseudonym]bool{}
	current := map[phl.UserID]wire.Pseudonym{}
	for _, d := range r.decisions {
		if !d.dec.Forwarded {
			continue
		}
		p := d.dec.Request.Pseudonym
		if current[d.user] == p {
			continue
		}
		if seen[d.user] == nil {
			seen[d.user] = map[wire.Pseudonym]bool{}
		}
		if seen[d.user][p] {
			t.Fatalf("user %d reused retired pseudonym %s", d.user, p)
		}
		seen[d.user][p] = true
		current[d.user] = p
	}
	r.notes.mu.Lock()
	rots := append([]rotationRecord(nil), r.notes.rots...)
	r.notes.mu.Unlock()
	news := map[phl.UserID]map[wire.Pseudonym]bool{}
	for _, rot := range rots {
		if rot.old == rot.new {
			t.Fatalf("rotation kept the pseudonym: %+v", rot)
		}
		if news[rot.user] == nil {
			news[rot.user] = map[wire.Pseudonym]bool{}
		}
		if news[rot.user][rot.new] {
			t.Fatalf("user %d re-minted pseudonym %s", rot.user, rot.new)
		}
		news[rot.user][rot.new] = true
	}

	// Invariant 5: SP ⊆ TS with identical contexts.
	for _, got := range r.spx.Delivered() {
		want := forwardedByID[got.ID]
		if want == nil {
			t.Fatalf("SP received msgid %d the TS never forwarded", got.ID)
		}
		if got.Context != want.Context || got.Pseudonym != want.Pseudonym || got.Service != want.Service {
			t.Fatalf("SP copy diverges from the forwarded form:\n got %+v\nwant %+v", got, want)
		}
	}

	// Invariant 6: fail-closed accounting. Synchronous refusals match
	// the degraded decisions; admitted requests are conserved across
	// delivered + dropped; every asynchronous drop is audited.
	ev := r.outbox.Events
	refused := ev.Get(resilience.EventShedQueueFull) +
		ev.Get(resilience.EventShedBreakerOpen) +
		ev.Get(resilience.EventDroppedClosed)
	if int64(degraded) != refused {
		t.Fatalf("degraded decisions = %d, outbox refusals = %d", degraded, refused)
	}
	if got := r.srv.Counters.Get("degraded"); got != int64(degraded) {
		t.Fatalf("degraded counter = %d, decisions = %d", got, degraded)
	}
	enq := ev.Get(resilience.EventEnqueued)
	delivered := ev.Get(resilience.EventDelivered)
	dropped := ev.Get(resilience.EventDropped)
	if enq != delivered+dropped {
		t.Fatalf("conservation violated: enqueued=%d delivered=%d dropped=%d", enq, delivered, dropped)
	}
	if int64(len(r.spx.Delivered())) != delivered {
		t.Fatalf("SP recorded %d deliveries, outbox counted %d", len(r.spx.Delivered()), delivered)
	}
	events, err := obs.ReadEvents(bytes.NewReader(r.auditBuf.Bytes()))
	if err != nil {
		t.Fatalf("audit parse: %v", err)
	}
	var auditDrops, auditDegraded int64
	for _, e := range events {
		switch {
		case e.Kind == obs.KindDelivery:
			auditDrops++
			if e.Outcome != obs.OutcomeDropped || e.Reason == "" {
				t.Fatalf("malformed delivery audit event: %+v", e)
			}
		case e.Kind == obs.KindRequest && e.Outcome == obs.OutcomeDegraded:
			auditDegraded++
			if e.Reason == "" {
				t.Fatalf("degraded audit event lacks a reason: %+v", e)
			}
		}
	}
	if auditDrops != dropped {
		t.Fatalf("audit has %d delivery drops, outbox counted %d", auditDrops, dropped)
	}
	if auditDegraded != int64(degraded) {
		t.Fatalf("audit has %d degraded requests, decisions = %d", auditDegraded, degraded)
	}

	// Invariant 7: trace completeness. Every anomalous outcome must be
	// explorable after the fact via its trace id even at 1/1000 head
	// sampling — the tail sampler's whole point.
	reqSpans := map[string]obs.Span{}
	delSpans := map[string][]obs.Span{}
	for _, sp := range r.srv.Obs.Tracer.Spans() {
		switch sp.Kind {
		case obs.SpanKindRequest:
			reqSpans[sp.TraceID] = sp
		case obs.SpanKindDelivery:
			delSpans[sp.TraceID] = append(delSpans[sp.TraceID], sp)
		}
	}
	for _, d := range r.decisions {
		if !d.dec.Degraded && !d.dec.Suppressed {
			continue
		}
		tid := d.dec.TraceID()
		if tid == "" {
			t.Fatalf("anomalous decision lacks a trace id: %+v", d.dec)
		}
		sp, ok := reqSpans[tid]
		if !ok {
			t.Fatalf("no retained request span for anomalous trace %s (%+v)",
				tid, d.dec)
		}
		if sp.KeepReason == "" {
			t.Fatalf("retained span lacks a keep reason: %+v", sp)
		}
		if d.dec.Degraded {
			found := false
			for _, e := range sp.Events {
				if e.Name == "shed_"+d.dec.DegradedReason {
					found = true
				}
			}
			if !found {
				t.Fatalf("degraded trace %s lacks the shed_%s event: %+v",
					tid, d.dec.DegradedReason, sp.Events)
			}
		}
	}
	for _, e := range events {
		if e.Kind != obs.KindDelivery {
			continue
		}
		if e.TraceID == "" {
			t.Fatalf("delivery audit event lacks a trace id: %+v", e)
		}
		var del *obs.Span
		for i, sp := range delSpans[e.TraceID] {
			if sp.Outcome == obs.OutcomeDropped && sp.MsgID == int64(e.MsgID) {
				del = &delSpans[e.TraceID][i]
			}
		}
		if del == nil {
			t.Fatalf("no retained delivery span for dropped trace %s (%+v)", e.TraceID, e)
		}
		if del.Reason != e.Reason {
			t.Fatalf("delivery span reason %q diverges from audit reason %q", del.Reason, e.Reason)
		}
		if len(del.AttemptNs) != e.Attempts {
			t.Fatalf("delivery span recorded %d attempt timings, audit counted %d",
				len(del.AttemptNs), e.Attempts)
		}
		if del.QueueNs < 0 || del.TotalNs < del.QueueNs {
			t.Fatalf("delivery span timings inconsistent: queue=%d total=%d",
				del.QueueNs, del.TotalNs)
		}
		if del.ParentSpanID == "" {
			t.Fatalf("delivery span not linked to its request span: %+v", *del)
		}
	}
}

// openChaosStore opens the restart schedules' durable tiered store on
// fsys. The options make maintenance and demotion run inside the first
// half of the workload, so recovery loads cold runs and a snapshot
// chain as well as replaying the WAL tail.
func openChaosStore(t *testing.T, fsys *storage.MemFS) *storage.TieredStore {
	t.Helper()
	st, _, err := storage.Open(storage.Options{
		Dir:              "store",
		FS:               fsys,
		SnapshotEvery:    16,
		HotWindow:        60,
		MaxDeltas:        2,
		ColdCacheEntries: 8,
	})
	if err != nil {
		t.Fatalf("storage.Open: %v", err)
	}
	return st
}

// TestChaosSchedules runs the invariant suite across 128 seeded fault
// schedules — SP error rates from 0 to 60%, hard outages, virtual-time
// latency spikes, tiny queues, slow stores, concurrent load, and
// mid-run crashes that recover the PHL from the durable tiered store.
func TestChaosSchedules(t *testing.T) {
	const seeds = 128
	for seed := uint64(0); seed < seeds; seed++ {
		sc := mkSchedule(seed)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			if !sc.restartMid {
				r := newRun(t, sc, nil)
				r.workload(sc, 0, 3)
				r.finish(t)
				checkInvariants(t, r, 3)
				return
			}
			// Crash-recovery path: run half the workload on a durable
			// tiered store, crash the machine, reopen the store under a
			// fresh server, run the rest. Both instances must satisfy
			// every invariant on their own.
			fsys := storage.NewMemFS()
			r1 := newRun(t, sc, openChaosStore(t, fsys))
			r1.workload(sc, 0, 2)
			r1.finish(t)
			checkInvariants(t, r1, 3)
			fsys.Crash()

			st := openChaosStore(t, fsys)
			defer st.Close()
			r2 := newRun(t, sc, st)
			if r2.srv.Store().NumSamples() != r1.srv.Store().NumSamples() {
				t.Fatalf("recovery lost samples: %d != %d",
					r2.srv.Store().NumSamples(), r1.srv.Store().NumSamples())
			}
			if rec := st.Recovery(); rec.ColdSamples == 0 {
				t.Fatalf("recovery loaded no cold samples, only a WAL replay: %+v", rec)
			}
			r2.workload(sc, 2, 4)
			r2.finish(t)
			checkInvariants(t, r2, 3)
		})
	}
}

// TestChaosHardOutageTripsBreakerFailClosed pins the headline behavior:
// a dead SP opens the breaker, subsequent requests degrade to
// suppression (never a less-protected forward), and after the open
// window a recovered SP serves again.
func TestChaosHardOutageTripsBreakerFailClosed(t *testing.T) {
	clock := chaos.NewClock(time.Unix(0, 0))
	spx := chaos.NewSP(chaos.Faults{Seed: 7, Outages: [][2]int64{{0, 50}}}, clock)
	outbox := resilience.NewOutbox(spx, resilience.Options{
		QueueSize: 4, Workers: 1, MaxAttempts: 2,
		Deadline: 30 * time.Second,
		Breaker:  resilience.BreakerConfig{FailureThreshold: 2, OpenFor: 5 * time.Second},
		Clock:    clock, Seed: 7,
	})
	defer outbox.Close()
	srv := ts.New(ts.Config{DefaultPolicy: ts.Policy{K: 2}}, outbox)

	// Drive requests until the breaker opens; with every attempt failing
	// the threshold trips after the first queued request's retries.
	sawDegraded := false
	for i := 0; i < 40 && !sawDegraded; i++ {
		dec := srv.Request(1, pt(10, 10, int64(1000+i)), "weather", nil)
		if dec.Degraded {
			sawDegraded = true
			if dec.DegradedReason != "breaker_open" && dec.DegradedReason != "queue_full" {
				t.Fatalf("unexpected degrade reason %q", dec.DegradedReason)
			}
		}
	}
	if !sawDegraded {
		t.Fatal("a hard SP outage never degraded a request")
	}
	if r := srv.Counters.Get("degraded"); r == 0 {
		t.Fatal("degraded counter not visible")
	}

	// Outage ends at attempt 50; force it past and reopen the window.
	for spx.Attempts() < 50 {
		spx.Deliver(&wire.Request{ID: wire.MsgID(1000 + spx.Attempts()), Service: "drain"})
	}
	clock.Advance(6 * time.Second) // past OpenFor: breaker half-opens
	deadline := time.Now().Add(5 * time.Second)
	recovered := false
	for time.Now().Before(deadline) && !recovered {
		dec := srv.Request(1, pt(10, 10, 5000), "weather", nil)
		if dec.Forwarded && !dec.Degraded {
			recovered = true
		}
		time.Sleep(time.Millisecond)
	}
	if !recovered {
		t.Fatal("breaker never recovered after the outage window")
	}
}

// TestChaosLatencyExpiresQueuedDeadlines pins the deadline logic: an SP
// stall that advances virtual time past the queued requests' budgets
// drops them (fail closed) instead of delivering them late, and the
// drops are conserved and visible.
func TestChaosLatencyExpiresQueuedDeadlines(t *testing.T) {
	clock := chaos.NewClock(time.Unix(0, 0))
	// Every attempt stalls 10 virtual seconds against a 2s budget: the
	// first queued request's attempt (begun in time) is allowed to
	// finish, but everything queued behind it expires unserved.
	spx := chaos.NewSP(chaos.Faults{Seed: 3, PLatency: 1, Latency: 10 * time.Second}, clock)
	outbox := resilience.NewOutbox(spx, resilience.Options{
		QueueSize: 8, Workers: 1, MaxAttempts: 1,
		Deadline: 2 * time.Second,
		Clock:    clock, Seed: 3,
	})
	srv := ts.New(ts.Config{DefaultPolicy: ts.Policy{K: 2}}, outbox)
	for i := 0; i < 6; i++ {
		srv.Request(1, pt(10, 10, int64(1000+i)), "weather", nil)
	}
	outbox.Close()
	ev := outbox.Events
	if ev.Get(resilience.EventDroppedDeadline) == 0 {
		t.Fatal("no queued request expired despite the 10s stall")
	}
	if ev.Get(resilience.EventEnqueued) !=
		ev.Get(resilience.EventDropped)+ev.Get(resilience.EventDelivered) {
		t.Fatal("conservation violated under latency")
	}
}

// TestChaosClockSkewAdvancesBreakerWindow pins the skew hook: a reading
// clock that jumps ahead moves an open breaker into its half-open
// probe window, exactly as real clock drift would.
func TestChaosClockSkewAdvancesBreakerWindow(t *testing.T) {
	clock := chaos.NewClock(time.Unix(0, 0))
	br := resilience.NewBreaker(resilience.BreakerConfig{
		FailureThreshold: 1, OpenFor: 5 * time.Second,
	}, clock.Now)
	br.Failure()
	if br.State() != resilience.BreakerOpen {
		t.Fatalf("state after failure = %v", br.State())
	}
	clock.SetSkew(4 * time.Second)
	if br.State() != resilience.BreakerOpen {
		t.Fatalf("state at +4s skew = %v, want still open", br.State())
	}
	clock.SetSkew(6 * time.Second)
	if br.State() != resilience.BreakerHalfOpen {
		t.Fatalf("state after +6s skew = %v, want half-open", br.State())
	}
}

// TestChaosSlowStorePreservesDecisions runs the same seeded workload
// with and without the slow-store fault and requires identical forward
// decisions: latency may slow Algorithm 1 but must never change it.
func TestChaosSlowStorePreservesDecisions(t *testing.T) {
	runOnce := func(slow bool) []decisionRecord {
		sc := mkSchedule(42)
		sc.faults = chaos.Faults{} // healthy SP: isolate the store fault
		sc.queueSize = 1024        // no shedding: decisions must be a pure function of the workload
		sc.concurrent = false
		sc.slowIndex = slow
		sc.restartMid = false
		r := newRun(t, sc, nil)
		r.workload(sc, 0, 2)
		r.finish(t)
		return r.decisions
	}
	fast := runOnce(false)
	slow := runOnce(true)
	if len(fast) != len(slow) {
		t.Fatalf("decision counts diverge: %d vs %d", len(fast), len(slow))
	}
	for i := range fast {
		f, s := fast[i], slow[i]
		if f.dec.Forwarded != s.dec.Forwarded || f.dec.Generalized != s.dec.Generalized ||
			f.dec.HKAnonymity != s.dec.HKAnonymity || f.dec.Suppressed != s.dec.Suppressed {
			t.Fatalf("decision %d diverges under slow store:\n fast %+v\n slow %+v", i, f.dec, s.dec)
		}
		if f.dec.Forwarded && f.dec.Request.Context != s.dec.Request.Context {
			t.Fatalf("context %d diverges under slow store: %v vs %v",
				i, f.dec.Request.Context, s.dec.Request.Context)
		}
	}
}

// TestChaosDeterministicReplay pins seeding: a fault schedule is a pure
// function of its seed, so the same sequence of delivery attempts sees
// the same sequence of outcomes on every run.
func TestChaosDeterministicReplay(t *testing.T) {
	outcomes := func(seed uint64) []bool {
		spx := chaos.NewSP(chaos.Faults{
			Seed: seed, PError: 0.3, Outages: [][2]int64{{40, 60}},
		}, nil)
		out := make([]bool, 200)
		for i := range out {
			out[i] = spx.Deliver(&wire.Request{ID: wire.MsgID(i), Service: "s"}) == nil
		}
		return out
	}
	a, b := outcomes(17), outcomes(17)
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d outcome not deterministic", i)
		}
		if !a[i] {
			fails++
		}
	}
	// The outage window alone forces 20 failures; pError adds more.
	if fails < 20 {
		t.Fatalf("schedule injected only %d failures", fails)
	}
	// A different seed must produce a different schedule.
	c := outcomes(18)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 17 and 18 produced identical schedules")
	}
}
