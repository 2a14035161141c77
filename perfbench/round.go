package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"histanon/internal/geo"
	"histanon/internal/httpapi"
	"histanon/internal/obs"
	"histanon/internal/slo"
	"histanon/internal/storage"
	"histanon/internal/wire"
)

const jsonType = "application/json"

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	agents   int
	workdir  string
	inject   string // "", "shrink" or "withhold": planted faults for the self-test
	// shrunk makes the "shrink" fault plant exactly once per run.
	shrunk atomic.Bool
}

// roundResult is what one round measured. A round builds a fresh
// server, sets it up, runs one measured phase and tears it down.
type roundResult struct {
	traced              bool
	setupS, measuredS   float64
	updates             int
	batchMs, requestMs  []float64
	answerMs, lateMs    []float64
	areaKm2             []float64
	requests, forwarded int
	generalized, hkOK   int
	attempted, failed   int
	failures            map[string]int // failed operations by reason
	heapPerSample       float64
	layer               *layerResult
}

// layerResult is the traced round's per-layer record.
type layerResult struct {
	record, history, insert, knn, spAnswer timerSnap
	knnNs, serveNs, queueWaitNs, inboxNs   []float64
	clientNs                               []float64
	serveTotalNs                           float64
	shed                                   int64
	stageN                                 [obs.NumStages]int64
	stageS                                 [obs.NumStages]float64
	counters                               map[string]int64
	retries, dropped                       int64
	samples                                int
	decodeNsPerFrame                       float64
	framesServed                           int
	sloNs                                  float64
	storage                                *storage.Stats
}

type timerSnap struct{ n, ns int64 }

func (t timerSnap) mean() float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.ns) / float64(t.n)
}

func snap(t *timer) timerSnap { return timerSnap{t.n.Load(), t.ns.Load()} }

// round is one build → set-up → measure → check → tear-down cycle.
type round struct {
	in     *inputs
	opt    *options
	traced bool
	base   time.Time
	tgt    *target
	lay    *layers
	conns  [nConns]*connState
	// sends holds, per user, the send time of each forwarded request in
	// order; only the user's connection appends to it.
	sends [][]int64
}

// connState is one connection's client and its share of the results.
type connState struct {
	r        *round
	c        int
	cli      *client
	res      roundResult
	err      error
	seq      int64
	decs     []decision
	slo      []slo.Decision
	clientNs []float64
	frames   int
	end      int64
}

func (r *round) now() int64 { return time.Since(r.base).Nanoseconds() }

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func (cs *connState) fail(err error) {
	if cs.err == nil {
		cs.err = err
	}
}

// nextSeq tags the traced run's calls; untraced calls carry no tag.
func (cs *connState) nextSeq() int64 {
	if !cs.r.traced {
		return -1
	}
	cs.seq++
	return cs.seq*nConns + int64(cs.c)
}

func (cs *connState) ok(status int, err error) bool {
	cs.res.attempted++
	switch {
	case err != nil:
		cs.res.failure("transport: " + err.Error())
	case status != 200:
		cs.res.failure(fmt.Sprintf("status %d", status))
	default:
		return true
	}
	return false
}

// failure counts one failed operation by its reason.
func (r *roundResult) failure(reason string) {
	r.failed++
	if r.failures == nil {
		r.failures = map[string]int{}
	}
	r.failures[reason]++
}

func (r *round) parallel(fn func(cs *connState)) error {
	var wg sync.WaitGroup
	for _, cs := range r.conns {
		wg.Add(1)
		go func(cs *connState) {
			defer wg.Done()
			fn(cs)
		}(cs)
	}
	wg.Wait()
	for _, cs := range r.conns {
		if cs.err != nil {
			return cs.err
		}
	}
	return nil
}

// liveHeap is the live heap after a forced collection.
func liveHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// runRound runs one round. It starts from a collected heap, so one
// round's garbage neither slows the next nor counts in its heap.
func runRound(in *inputs, opt *options, traced bool) (res roundResult, err error) {
	baseHeap := liveHeap() // the inputs and earlier rounds' records
	r := &round{in: in, opt: opt, traced: traced, base: time.Now(), sends: make([][]int64, in.agents)}
	route := "/v1/batch"
	if in.wl.name == "requests" {
		route = "/v1/request"
	}
	if traced {
		r.lay = newLayers(r.base, route)
	}
	inbox := newInboxLog(in.agents, r.base, r.lay)

	// Set-up: server construction (and storage.Open), LBQID
	// registration and the crowd preload, over the socket.
	t0 := time.Now()
	var withhold int64
	if opt.inject == "withhold" {
		withhold = 1
	}
	if r.tgt, err = build(in.agents, in.wl.durable, opt.workdir, withhold, r.lay, inbox); err != nil {
		return res, err
	}
	defer r.tgt.close()
	for c := range r.conns {
		r.conns[c] = &connState{r: r, c: c, cli: newClient(r.tgt.url)}
		defer r.conns[c].cli.close()
	}
	if err := r.parallel(func(cs *connState) {
		ci := &in.conns[cs.c]
		for _, body := range ci.lbqids {
			cs.ok(cs.cli.post("/v1/lbqid", jsonType, body, -1))
		}
		for _, b := range ci.preload {
			cs.ok(cs.cli.post("/v1/batch", httpapi.WireContentType, b.body, -1))
		}
	}); err != nil {
		return res, err
	}
	setup := time.Since(t0)

	// Measured phase.
	if r.lay != nil {
		r.lay.on.Store(true)
	}
	start := r.now()
	if in.wl.name == "requests" {
		err = r.parallel(func(cs *connState) { cs.callLoop(in.conns[cs.c].calls, true) })
	} else {
		err = r.parallel(func(cs *connState) { cs.batchLoop(in.conns[cs.c].batches) })
	}
	end := int64(0)
	for _, cs := range r.conns {
		if cs.end > end {
			end = cs.end
		}
	}
	if err == nil && in.wl.probe > 0 {
		err = r.parallel(func(cs *connState) {
			cs.callLoop(in.conns[cs.c].calls, false)
		})
	}
	res = r.merge()
	if err != nil {
		return res, err
	}
	if err := r.drain(); err != nil {
		return res, err
	}
	if r.lay != nil {
		r.lay.on.Store(false)
	}
	for i := int64(0); i < r.tgt.outbox.Dropped(); i++ {
		res.failure("outbox drop")
	}
	res.traced = traced
	res.setupS = setup.Seconds()
	res.measuredS = float64(end-start) / 1e9
	if err := r.pairAnswers(&res); err != nil {
		return res, err
	}
	if traced {
		res.layer = r.layerSnapshot()
	} else if n := r.tgt.srv.Store().NumSamples(); n > 0 {
		res.heapPerSample = (liveHeap() - baseHeap) / float64(n)
	}
	return res, nil
}

func minRounds(opt *options) int {
	if opt.trace {
		return 4 // two untraced, two traced, alternating
	}
	return 3
}

// batchLoop sends the connection's batches in a closed loop.
func (cs *connState) batchLoop(bs []batch) {
	r := cs.r
	prevDone := int64(-1)
	for _, b := range bs {
		seq := cs.nextSeq()
		sent := r.now()
		status, err := cs.cli.post("/v1/batch", httpapi.WireContentType, b.body, seq)
		done := r.now()
		if prevDone >= 0 {
			cs.res.lateMs = append(cs.res.lateMs, ms(sent-prevDone))
		}
		prevDone, cs.end = done, done
		if !cs.ok(status, err) {
			continue
		}
		cs.res.batchMs = append(cs.res.batchMs, ms(done-sent))
		cs.res.updates += b.frames
		cs.frames += b.frames
		cs.noteServe(seq, done-sent)
		decs, err := decodeDecisions(cs.cli.buf.Bytes(), len(b.calls), cs.decs)
		cs.decs = decs
		if err != nil {
			cs.fail(err)
			continue
		}
		for i, d := range decs {
			cs.decide(b.calls[i], d, sent, done)
		}
	}
}

// callLoop sends JSON service requests in a closed loop. measured
// marks the workload's measured phase (the ingest probe is not).
func (cs *connState) callLoop(calls []jsonCall, measured bool) {
	r := cs.r
	prevDone := int64(-1)
	for _, jc := range calls {
		seq := int64(-1)
		if measured {
			seq = cs.nextSeq()
		}
		sent := r.now()
		status, err := cs.cli.post("/v1/request", jsonType, jc.body, seq)
		done := r.now()
		if measured {
			if prevDone >= 0 {
				cs.res.lateMs = append(cs.res.lateMs, ms(sent-prevDone))
			}
			cs.end = done
		}
		prevDone = done
		if !cs.ok(status, err) {
			continue
		}
		d, err := fromJSON(cs.cli.buf.Bytes())
		if err != nil {
			cs.fail(err)
			continue
		}
		if measured {
			cs.res.batchMs = append(cs.res.batchMs, ms(done-sent))
			cs.res.updates++
			cs.noteServe(seq, done-sent)
		}
		cs.decide(jc.call, d, sent, done)
	}
}

// noteServe records the traced call's client time outside ServeHTTP.
func (cs *connState) noteServe(seq, rtt int64) {
	if cs.r.lay == nil {
		return
	}
	if sv, ok := cs.r.lay.serveOf(seq); ok {
		cs.clientNs = append(cs.clientNs, float64(rtt-sv))
	}
}

// decide accounts and checks one decision; sent is when the call was
// sent, done when its decision arrived.
func (cs *connState) decide(c call, d decision, sent, done int64) {
	res := &cs.res
	res.requests++
	res.requestMs = append(res.requestMs, ms(done-sent))
	if d.degraded {
		res.failure("degraded: " + d.degradedReason)
	}
	if d.generalized {
		res.generalized++
		if d.hk {
			res.hkOK++
		}
	}
	if cs.r.traced {
		cs.slo = append(cs.slo, sloDecision(c, d))
	}
	if !d.forwarded {
		return
	}
	res.forwarded++
	if cs.r.opt.inject == "shrink" && d.generalized && cs.r.opt.shrunk.CompareAndSwap(false, true) {
		// A corrupted decision: the context moved off its point.
		d.ctx = geo.STBox{
			Area: geo.Rect{MinX: c.pt.P.X + 1, MinY: c.pt.P.Y + 1, MaxX: c.pt.P.X + 2, MaxY: c.pt.P.Y + 2},
			Time: d.ctx.Time,
		}
	}
	if err := checkDecision(c, d); err != nil {
		cs.fail(err)
	}
	if d.generalized {
		res.areaKm2 = append(res.areaKm2, d.ctx.Area.Area()/1e6)
	}
	cs.r.sends[c.user] = append(cs.r.sends[c.user], sent)
}

// sloDecision rebuilds the SLO engine's view of a decision from what
// the client saw. Achieved k is not on the wire: it is taken as k when
// Algorithm 1 preserved historical k-anonymity and 1 otherwise.
func sloDecision(c call, d decision) slo.Decision {
	sd := slo.Decision{
		T: c.pt.T, RequestedK: 5, User: c.user,
		Generalized: d.generalized, Forwarded: d.forwarded,
		Suppressed: d.suppressed, Degraded: d.degraded,
	}
	if d.generalized {
		sd.AchievedK = 1
		if d.hk {
			sd.AchievedK = 5
		}
	}
	if d.forwarded {
		sd.Pseudonym, sd.Box = d.pseudonym, d.ctx
	}
	return sd
}

// drain waits for the SP to answer everything forwarded, then checks
// that the three forwarded counts agree and every answer was routed.
func (r *round) drain() error {
	srv, sp := r.tgt.srv, r.tgt.sp
	fwd := srv.Counters.Get("forwarded")
	deadline := time.Now().Add(10 * time.Second)
	for sp.delivered.Load()+r.tgt.outbox.Dropped() < fwd && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	deadline = time.Now().Add(2 * time.Second)
	for r.tgt.inbox.total.Load() < sp.delivered.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	bench := 0
	for _, cs := range r.conns {
		bench += cs.res.forwarded
	}
	delivered, answered := sp.delivered.Load(), r.tgt.inbox.total.Load()
	switch {
	case int64(bench) != fwd:
		return fmt.Errorf("check: the benchmark saw %d forwarded decisions, the server's forwarded counter says %d", bench, fwd)
	case delivered != fwd:
		return fmt.Errorf("check: %d requests forwarded, the SP received %d (outbox dropped %d)", fwd, delivered, r.tgt.outbox.Dropped())
	case answered != delivered:
		return fmt.Errorf("check: the SP answered %d requests, %d answers reached an inbox", delivered, answered)
	}
	return nil
}

// merge folds the connections' results together.
func (r *round) merge() roundResult {
	var m roundResult
	for _, cs := range r.conns {
		p := &cs.res
		m.updates += p.updates
		m.batchMs = append(m.batchMs, p.batchMs...)
		m.requestMs = append(m.requestMs, p.requestMs...)
		m.lateMs = append(m.lateMs, p.lateMs...)
		m.areaKm2 = append(m.areaKm2, p.areaKm2...)
		m.requests += p.requests
		m.forwarded += p.forwarded
		m.generalized += p.generalized
		m.hkOK += p.hkOK
		m.attempted += p.attempted
		m.failed += p.failed
		for k, v := range p.failures {
			if m.failures == nil {
				m.failures = map[string]int{}
			}
			m.failures[k] += v
		}
	}
	return m
}

// pairAnswers matches each user's answers (in msgid order) with the
// user's forwarded requests (in send order).
func (r *round) pairAnswers(res *roundResult) error {
	for u := range r.sends {
		ans := r.tgt.inbox.answers(u)
		if len(ans) != len(r.sends[u]) {
			return fmt.Errorf("check: user %d sent %d forwarded requests and received %d answers", u, len(r.sends[u]), len(ans))
		}
		for i, at := range ans {
			res.answerMs = append(res.answerMs, ms(at-r.sends[u][i]))
		}
	}
	return nil
}

// layerSnapshot collects the traced round's per-layer record.
func (r *round) layerSnapshot() *layerResult {
	l, srv := r.lay, r.tgt.srv
	lr := &layerResult{
		record: snap(&l.record), history: snap(&l.history), insert: snap(&l.insert),
		knn: snap(&l.knn), spAnswer: snap(&l.spAnswer),
		knnNs: l.knnNs.values(), serveNs: l.serveNs.values(),
		queueWaitNs: l.queueWaitNs.values(), inboxNs: l.inboxNs.values(),
		shed:     l.shed.Load(),
		counters: map[string]int64{},
		retries:  r.tgt.outbox.Events.Get("retries"),
		dropped:  r.tgt.outbox.Dropped(),
		samples:  srv.Store().NumSamples(),
	}
	lr.serveTotalNs = float64(l.serveTotal.Load())
	for _, st := range obs.Stages() {
		h := srv.Obs.StageSeconds[st]
		lr.stageN[st], lr.stageS[st] = h.Count(), h.Sum()
	}
	for _, name := range []string{"generalized", "hk_failures", "unlinkings", "at_risk", "suppressed", "degraded"} {
		lr.counters[name] = srv.Counters.Get(name)
	}
	var sent []batch
	var decisions []slo.Decision
	for _, cs := range r.conns {
		lr.clientNs = append(lr.clientNs, cs.clientNs...)
		lr.framesServed += cs.frames
		decisions = append(decisions, cs.slo...)
		if r.in.wl.name == "requests" {
			sent = append(sent, r.in.conns[cs.c].preload...)
		} else {
			sent = append(sent, r.in.conns[cs.c].batches...)
		}
	}
	lr.decodeNsPerFrame = decodeReplay(sent)
	lr.sloNs = sloReplay(decisions)
	if r.tgt.tiered != nil {
		st := r.tgt.tiered.Stats()
		lr.storage = &st
	}
	return lr
}

// decodeReplay times the sent batches through the server's decode
// path (wire.NewBatchDecoder and the payload parsers), per frame.
func decodeReplay(bs []batch) float64 {
	frames := 0
	var sink int64 // keeps the parsed payloads live
	t0 := time.Now()
	for _, b := range bs {
		dec, err := wire.NewBatchDecoder(b.body)
		if err != nil {
			continue
		}
		for dec.Next() {
			frames++
			switch dec.Type() {
			case wire.FrameLocation:
				if l, err := wire.ParseLocationPayload(dec.Flags(), dec.Payload()); err == nil {
					sink += l.T
				}
			case wire.FrameServiceCall:
				if c, err := wire.ParseServiceCallPayload(dec.Flags(), dec.Payload()); err == nil {
					sink += c.T
				}
			}
		}
	}
	elapsed := time.Since(t0)
	runtime.KeepAlive(sink)
	if frames == 0 {
		return 0
	}
	return float64(elapsed.Nanoseconds()) / float64(frames)
}

// sloReplay times the round's decisions through a fresh SLO engine
// configured like the server's.
func sloReplay(ds []slo.Decision) float64 {
	if len(ds) == 0 {
		return 0
	}
	eng := slo.New(sloOptions())
	eng.SetEnabled(true)
	t0 := time.Now()
	for _, d := range ds {
		eng.Observe(d)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(ds))
}
