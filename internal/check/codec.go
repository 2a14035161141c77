package check

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"histanon/internal/geo"
	"histanon/internal/httpapi"
	"histanon/internal/obs"
	"histanon/internal/phl"
	"histanon/internal/tgran"
	"histanon/internal/ts"
	"histanon/internal/wire"
)

// Codec differential oracle: one seeded workload of location updates and
// service calls is run twice against two identically configured trusted
// servers, each behind the real HTTP handler (httpapi.New) and driven
// in process through ServeHTTP, without sockets. The JSON leg sends
// every location as POST /v1/location and every call as POST
// /v1/request carrying the op's traceparent header, and hands the
// TS↔SP traffic over in memory. The binary leg flushes wire.Batchers
// into POST /v1/batch with a binary Accept header, decodes decisions
// from the response's decision frames, and round-trips every TS→SP
// request and SP→TS response through the binary codec, the pooled
// zero-copy parser included. The two legs must be observationally
// identical: equal decisions, forwarded requests, responses, audit logs
// (including trace_ids) and achieved-k histograms. Any difference is a
// bug in the binary channel — its framing, its batched ingest in
// handleBatch, or its codec — silently altering what the privacy
// pipeline sees or says.
//
// Determinism notes (why exact comparison is sound):
//   - pseudonym.Manager mints sequence-numbered pseudonyms, so equal
//     rotation histories yield equal pseudonyms;
//   - every service call carries a seeded parent trace context, and the
//     audit log records the parent's trace id, so trace_ids match even
//     though span ids are freshly minted;
//   - trajectories are continuous random walks with no duplicated or
//     lattice-snapped samples, so k-nearest distances are distinct and
//     query results do not depend on index insertion order — which is
//     what makes the concurrent-ingest schedule comparable at all.

// CodecWorkloadConfig parameterizes one codec workload. The zero value
// of any field selects a default, so {Seed} alone is reproducible.
type CodecWorkloadConfig struct {
	// Seed drives every random choice.
	Seed int64
	// Users is the population size.
	Users int
	// Locations is the number of plain location updates.
	Locations int
	// Calls is the number of service calls issued after the crowd forms.
	Calls int
	// Extent is the side (meters) of the roamed square.
	Extent float64
	// TimeSpan is the schedule duration in seconds.
	TimeSpan int64
	// TimeScale is the metric's seconds-to-meters factor.
	TimeScale float64
}

func (c CodecWorkloadConfig) withDefaults() CodecWorkloadConfig {
	if c.Users <= 0 {
		c.Users = 16
	}
	if c.Locations <= 0 {
		c.Locations = 200
	}
	if c.Calls <= 0 {
		c.Calls = 40
	}
	if c.Extent <= 0 {
		c.Extent = 1500
	}
	if c.TimeSpan <= 0 {
		c.TimeSpan = 3600
	}
	if c.TimeScale <= 0 {
		c.TimeScale = 0.5
	}
	return c
}

// CodecOp is one scheduled operation: a location update (Call == false)
// or a service call.
type CodecOp struct {
	Call    bool
	User    phl.UserID
	P       geo.STPoint
	Service string
	Data    map[string]string
	// Parent is the call's deterministic upstream trace context (calls
	// only; its trace id is what audit records must agree on).
	Parent obs.TraceContext
}

// CodecWorkload is a reproducible op schedule: Locations location
// updates (the crowd), then Calls service calls interleaved with more
// movement. The location prefix is partitionable by user — per-user
// order is trajectory order — which the concurrent schedule exploits.
type CodecWorkload struct {
	Cfg  CodecWorkloadConfig
	Locs []CodecOp // phase 1: crowd formation, partitionable by user
	Ops  []CodecOp // phase 2: service calls (and their movement), in order
}

var codecServices = []string{"navigation", "weather", "poi"}

// codecLBQIDSpec is the pattern some users carry; the schedule's
// timestamps start at 06:00 so calls land inside the element window.
const codecLBQIDSpec = `
lbqid "hotspot" {
    element area [0,400]x[0,400] time [06:00,10:00]
    recurrence 1.Days
}`

// NewCodecWorkload generates the schedule determined by cfg. All
// coordinates are continuous (never snapped, never duplicated) so
// nearest-neighbor distances are tie-free.
func NewCodecWorkload(cfg CodecWorkloadConfig) *CodecWorkload {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &CodecWorkload{Cfg: cfg}

	base := 6 * tgran.Hour // calls fall inside the LBQID element window
	half := cfg.Extent / 2
	step := cfg.Extent / 25
	pos := make([]geo.Point, cfg.Users)
	for u := range pos {
		pos[u] = geo.Point{X: rng.Float64()*cfg.Extent - half, Y: rng.Float64()*cfg.Extent - half}
	}
	tick := float64(cfg.TimeSpan) / float64(cfg.Locations+cfg.Calls)
	now := 0
	move := func(u int) geo.STPoint {
		p := pos[u]
		p.X = clamp(p.X+rng.NormFloat64()*step, -half, half)
		p.Y = clamp(p.Y+rng.NormFloat64()*step, -half, half)
		pos[u] = p
		now++
		return geo.STPoint{P: p, T: base + int64(float64(now)*tick)}
	}

	for i := 0; i < cfg.Locations; i++ {
		u := i % cfg.Users
		w.Locs = append(w.Locs, CodecOp{User: phl.UserID(u), P: move(u)})
	}
	for i := 0; i < cfg.Calls; i++ {
		u := rng.Intn(cfg.Users)
		op := CodecOp{
			Call:    true,
			User:    phl.UserID(u),
			P:       move(u),
			Service: codecServices[rng.Intn(len(codecServices))],
			Parent:  mintCodecParent(rng),
		}
		// Occasionally steer a call into the LBQID element so pattern
		// matching, session generalization and exposure all fire.
		if rng.Intn(3) == 0 {
			op.P.P = geo.Point{X: rng.Float64() * 400, Y: rng.Float64() * 400}
		}
		switch rng.Intn(4) {
		case 0: // no data
		case 1:
			op.Data = map[string]string{"q": "café & bar"}
		default:
			op.Data = map[string]string{
				"dest": fmt.Sprintf("poi-%d", rng.Intn(100)),
				"lang": "en",
			}
		}
		w.Ops = append(w.Ops, op)
		// Movement by other users between calls keeps the index evolving
		// mid-phase, so later calls see state earlier calls did not.
		for j := 0; j < 2; j++ {
			v := rng.Intn(cfg.Users)
			w.Ops = append(w.Ops, CodecOp{User: phl.UserID(v), P: move(v)})
		}
	}
	return w
}

// mintCodecParent draws a deterministic sampled-or-not trace context.
func mintCodecParent(rng *rand.Rand) obs.TraceContext {
	var tc obs.TraceContext
	for tc.TraceID == [16]byte{} {
		rng.Read(tc.TraceID[:])
	}
	for tc.SpanID == [8]byte{} {
		rng.Read(tc.SpanID[:])
	}
	if rng.Intn(2) == 0 {
		tc.Flags = obs.FlagSampled
	}
	return tc
}

// codecRun is one leg's complete observable behavior.
type codecRun struct {
	leg       string
	decisions []string // one fingerprint per call, in schedule order
	requests  []string // renderRequest of each forwarded request
	responses []string // renderResponse of each inbox delivery
	audit     string   // raw audit JSONL bytes
	traceIDs  []string // trace_id per audit event, in log order
	achievedK []int64  // obs.Observer.AchievedK bucket counts
	counters  string   // ts.Server.Counters in canonical render

	// mu guards divs: concurrent ingest fails from one goroutine per
	// user stream.
	mu   sync.Mutex
	divs []Divergence
}

func (r *codecRun) fail(kind string, q int, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.divs = append(r.divs, Divergence{Index: r.leg, Kind: kind, Query: q,
		Detail: fmt.Sprintf(format, args...)})
}

// newCodecServer builds one leg's trusted server with the shared
// deterministic configuration and an audit sink into buf, and returns
// it behind the HTTP handler the leg drives. The outbox hands every
// forwarded request and its deterministic SP response through
// roundReq/roundResp — the leg's TS↔SP channel.
func newCodecServer(w *CodecWorkload, run *codecRun, buf *bytes.Buffer,
	roundReq func(*wire.Request) (*wire.Request, error),
	roundResp func(*wire.Response) (*wire.Response, error)) (*ts.Server, http.Handler) {

	var srv *ts.Server
	out := ts.OutboxFunc(func(req *wire.Request) {
		rt, err := roundReq(req)
		if err != nil {
			run.fail("request-codec", len(run.requests), "round-trip: %v", err)
			return
		}
		run.requests = append(run.requests, renderRequest(rt))
		resp := &wire.Response{ID: rt.ID, Service: rt.Service, Payload: map[string]string{
			"status": "ok",
			"echo":   fmt.Sprintf("%s#%d", rt.Service, rt.ID),
		}}
		back, err := roundResp(resp)
		if err != nil {
			run.fail("response-codec", len(run.responses), "round-trip: %v", err)
			return
		}
		srv.DeliverResponse(back)
	})
	srv = ts.New(ts.Config{
		Metric:        geo.STMetric{TimeScale: w.Cfg.TimeScale},
		DefaultPolicy: ts.Policy{K: 3},
	}, out)
	srv.Obs.SetAudit(obs.NewAuditLog(buf))

	levels := []ts.Level{ts.Low, ts.Medium, ts.High}
	for u := 0; u < w.Cfg.Users; u++ {
		id := phl.UserID(u)
		srv.RegisterUser(id, ts.PolicyForLevel(levels[u%len(levels)]))
		if u%4 == 0 {
			if err := srv.AddLBQIDSpec(id, codecLBQIDSpec); err != nil {
				run.fail("setup", -1, "lbqid spec: %v", err)
			}
		}
		srv.SetInbox(id, ts.InboxFunc(func(resp *wire.Response) {
			run.responses = append(run.responses, renderResponse(resp))
		}))
	}
	return srv, httpapi.New(srv)
}

// finish captures the post-run observable state.
func (r *codecRun) finish(srv *ts.Server, buf *bytes.Buffer) {
	if err := srv.Obs.AuditSink().Flush(); err != nil {
		r.fail("audit", -1, "flush: %v", err)
	}
	r.audit = buf.String()
	events, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		r.fail("audit", -1, "read back: %v", err)
	}
	for _, e := range events {
		r.traceIDs = append(r.traceIDs, e.TraceID)
	}
	r.achievedK = srv.Obs.AchievedK.BucketCounts()
	r.counters = srv.Counters.String()
}

// fingerprint renders what a decision tells the caller: the fields
// httpapi.DecisionResponse and wire.DecisionFrame share, projected from
// d as the handler projects it onto either encoding.
func fingerprint(i int, d ts.Decision) string {
	f := wire.DecisionFrame{
		Forwarded:      d.Forwarded,
		Generalized:    d.Generalized,
		HKAnonymity:    d.HKAnonymity,
		Unlinked:       d.Unlinked,
		AtRisk:         d.AtRisk,
		Suppressed:     d.Suppressed,
		Degraded:       d.Degraded,
		QIDExposed:     d.QIDExposed,
		MatchedLBQID:   d.MatchedLBQID,
		DegradedReason: d.DegradedReason,
		TraceID:        d.TraceID(),
	}
	if d.Request != nil {
		f.Pseudonym = string(d.Request.Pseudonym)
		f.HasContext = true
		f.Context = d.Request.Context
	}
	return fingerprintFrame(i, f)
}

// fingerprintJSON is fingerprint for a decision the JSON API returned.
func fingerprintJSON(i int, d httpapi.DecisionResponse) string {
	f := wire.DecisionFrame{
		Forwarded:      d.Forwarded,
		Generalized:    d.Generalized,
		HKAnonymity:    d.HKAnonymity,
		Unlinked:       d.Unlinked,
		AtRisk:         d.AtRisk,
		Suppressed:     d.Suppressed,
		Degraded:       d.Degraded,
		QIDExposed:     d.QIDExposed,
		MatchedLBQID:   d.MatchedLBQID,
		DegradedReason: d.DegradedReason,
		TraceID:        d.TraceID,
		Pseudonym:      d.Pseudonym,
	}
	if c := d.Context; c != nil {
		f.HasContext = true
		f.Context = geo.STBox{
			Area: geo.Rect{MinX: c.MinX, MinY: c.MinY, MaxX: c.MaxX, MaxY: c.MaxY},
			Time: geo.Interval{Start: c.Start, End: c.End},
		}
	}
	return fingerprintFrame(i, f)
}

// fingerprintFrame is fingerprint for a decision frame /v1/batch
// returned; the other two fingerprints render through it.
func fingerprintFrame(i int, f wire.DecisionFrame) string {
	ctx := "-"
	if f.HasContext {
		ctx = renderBox(f.Context)
	}
	return fmt.Sprintf("call %d fwd=%t gen=%t hk=%t lbqid=%q unlink=%t risk=%t sup=%t deg=%t(%s) qid=%t trace=%s pseudo=%q ctx=%s",
		i, f.Forwarded, f.Generalized, f.HKAnonymity, f.MatchedLBQID,
		f.Unlinked, f.AtRisk, f.Suppressed, f.Degraded, f.DegradedReason,
		f.QIDExposed, f.TraceID, f.Pseudonym, ctx)
}

// renderRequest renders a forwarded request exactly: every float in
// its shortest round-tripping form, data keys sorted (fmt sorts map
// keys), so two renders are equal exactly when the requests are.
func renderRequest(r *wire.Request) string {
	return fmt.Sprintf("req id=%d pseudo=%q svc=%q ctx=%s data=%q",
		r.ID, r.Pseudonym, r.Service, renderBox(r.Context), r.Data)
}

// renderResponse renders an SP response exactly, like renderRequest.
func renderResponse(r *wire.Response) string {
	return fmt.Sprintf("resp id=%d svc=%q payload=%q", r.ID, r.Service, r.Payload)
}

// renderBox renders a context box exactly; −0 keeps its sign.
func renderBox(b geo.STBox) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	a := b.Area
	return fmt.Sprintf("[%s,%s]x[%s,%s]@[%d,%d]",
		f(a.MinX), f(a.MaxX), f(a.MinY), f(a.MaxY), b.Time.Start, b.Time.End)
}

// serve drives one in-process request through h and returns the
// response, failing the run on any status other than 200.
func (r *codecRun) serve(h http.Handler, q int, req *http.Request) (*httptest.ResponseRecorder, bool) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		r.fail("http", q, "%s %s: %d %s", req.Method, req.URL.Path, rec.Code, rec.Body.String())
		return rec, false
	}
	return rec, true
}

// postJSON builds an in-process JSON POST of v.
func postJSON(path string, v any) *http.Request {
	body, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	return req
}

// runJSONLeg executes the schedule through the JSON API, one location
// or call per request, and hands the TS↔SP traffic over in memory. When
// concurrent is true the location prefix is posted by one goroutine per
// user.
func runJSONLeg(w *CodecWorkload, concurrent bool) *codecRun {
	run := &codecRun{leg: "json"}
	var buf bytes.Buffer
	srv, h := newCodecServer(w, run, &buf,
		func(r *wire.Request) (*wire.Request, error) { return r, nil },
		func(r *wire.Response) (*wire.Response, error) { return r, nil })

	ingest := func(op CodecOp) {
		if !op.Call {
			run.serve(h, -1, postJSON("/v1/location", httpapi.LocationRequest{
				User: int64(op.User), X: op.P.P.X, Y: op.P.P.Y, T: op.P.T,
			}))
			return
		}
		q := len(run.decisions)
		req := postJSON("/v1/request", httpapi.ServiceRequest{
			User: int64(op.User), X: op.P.P.X, Y: op.P.P.Y, T: op.P.T,
			Service: op.Service, Data: op.Data,
		})
		req.Header.Set("traceparent", op.Parent.Traceparent())
		rec, ok := run.serve(h, q, req)
		if !ok {
			return
		}
		var d httpapi.DecisionResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
			run.fail("decode", q, "decision: %v", err)
			return
		}
		run.decisions = append(run.decisions, fingerprintJSON(q, d))
	}
	forEachUserStream(w.Locs, w.Cfg.Users, concurrent, ingest)
	for _, op := range w.Ops {
		ingest(op)
	}
	run.finish(srv, &buf)
	return run
}

// runBinaryLeg executes the same schedule through POST /v1/batch and
// round-trips the TS↔SP traffic through the binary request/response
// codec, including the pooled zero-copy parser.
func runBinaryLeg(w *CodecWorkload, concurrent bool) *codecRun {
	run := &codecRun{leg: "binary"}
	var buf bytes.Buffer
	srv, h := newCodecServer(w, run, &buf,
		func(r *wire.Request) (*wire.Request, error) {
			frame, err := wire.EncodeBinaryRequest(r)
			if err != nil {
				return nil, err
			}
			// Parse twice: the plain parser feeds the comparison, the
			// pooled parser must agree with it exactly.
			plain, err := wire.ParseBinaryRequest(frame)
			if err != nil {
				return nil, err
			}
			pooled := wire.AcquireBinaryRequest()
			defer pooled.Release()
			if err := pooled.ParseFrame(frame); err != nil {
				return nil, fmt.Errorf("pooled parse disagrees: %v", err)
			}
			if a, b := renderRequest(plain), renderRequest(&pooled.Request); a != b {
				return nil, fmt.Errorf("pooled parse drift: %q vs %q", b, a)
			}
			return plain, nil
		},
		func(r *wire.Response) (*wire.Response, error) {
			frame, err := wire.EncodeBinaryResponse(r)
			if err != nil {
				return nil, err
			}
			return wire.ParseBinaryResponse(frame)
		})

	// post sends one batch to /v1/batch and appends a fingerprint per
	// decision frame of the response. A batch of locations only gets no
	// decision frames, so concurrent location flushes never append.
	post := func(batch []byte, _ int) error {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(batch))
		req.Header.Set("Content-Type", httpapi.WireContentType)
		req.Header.Set("Accept", httpapi.WireContentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("POST /v1/batch: %d %s", rec.Code, rec.Body.String())
		}
		dec, err := wire.NewBatchDecoder(rec.Body.Bytes())
		if err != nil {
			return err
		}
		for dec.Next() {
			if dec.Type() != wire.FrameDecision {
				return fmt.Errorf("unexpected %s frame in the response", dec.Type())
			}
			f, err := wire.ParseDecisionPayload(dec.Flags(), dec.Payload())
			if err != nil {
				return err
			}
			run.decisions = append(run.decisions, fingerprintFrame(len(run.decisions), f))
		}
		return dec.Err()
	}

	encodeOp := func(dst []byte, op CodecOp) ([]byte, error) {
		if !op.Call {
			return wire.AppendLocation(dst, wire.LocationUpdate{
				User: int64(op.User), X: op.P.P.X, Y: op.P.P.Y, T: op.P.T,
			}), nil
		}
		return wire.AppendServiceCall(dst, wire.ServiceCall{
			User: int64(op.User), X: op.P.P.X, Y: op.P.P.Y, T: op.P.T,
			Service:     op.Service,
			Traceparent: op.Parent.Traceparent(),
			Data:        op.Data,
		})
	}

	// Phase 1: the location prefix flows through Batchers — one per user
	// stream — whose size/deadline policy produces multi-frame batches.
	ingestStream := func(ops []CodecOp) {
		// An hour-long deadline keeps the timer out of the deterministic
		// schedule: flushes happen on size or Close only.
		b, err := wire.NewBatcher(wire.BatcherConfig{
			MaxBytes: 512, MaxDelay: time.Hour, Flush: post,
		})
		if err != nil {
			run.fail("batcher", -1, "construct: %v", err)
			return
		}
		for _, op := range ops {
			frame, err := encodeOp(nil, op)
			if err != nil {
				run.fail("encode", -1, "location frame: %v", err)
				continue
			}
			if err := b.Add(frame); err != nil {
				run.fail("batcher", -1, "add: %v", err)
			}
		}
		if err := b.Close(); err != nil {
			run.fail("batcher", -1, "close: %v", err)
		}
		st := b.Stats()
		if st.Added != st.Flushed || st.Dropped != 0 || st.Pending != 0 {
			run.fail("batcher", -1, "conservation: %+v", st)
		}
	}
	if concurrent {
		streams := partitionByUser(w.Locs, w.Cfg.Users)
		var wg sync.WaitGroup
		for _, ops := range streams {
			wg.Add(1)
			go func(ops []CodecOp) {
				defer wg.Done()
				ingestStream(ops)
			}(ops)
		}
		wg.Wait()
	} else {
		ingestStream(w.Locs)
	}

	// Phase 2: each call goes in one batch with the movement scheduled
	// before it, so the handler must record that run before deciding the
	// call; trailing movement goes in a last batch.
	var frames []byte
	count := 0
	flush := func() {
		if count == 0 {
			return
		}
		batch, err := wire.AppendBatch(nil, count, frames)
		if err != nil {
			run.fail("encode", len(run.decisions), "batch frame: %v", err)
		} else if err := post(batch, count); err != nil {
			run.fail("decode", len(run.decisions), "post: %v", err)
		}
		frames, count = frames[:0], 0
	}
	for _, op := range w.Ops {
		var err error
		if frames, err = encodeOp(frames, op); err != nil {
			run.fail("encode", len(run.decisions), "op frame: %v", err)
			continue
		}
		count++
		if op.Call {
			flush()
		}
	}
	flush()
	run.finish(srv, &buf)
	return run
}

// forEachUserStream applies ops either in schedule order (sequential)
// or as one goroutine per user stream (concurrent), preserving per-user
// order either way.
func forEachUserStream(ops []CodecOp, users int, concurrent bool, f func(CodecOp)) {
	if !concurrent {
		for _, op := range ops {
			f(op)
		}
		return
	}
	var wg sync.WaitGroup
	for _, stream := range partitionByUser(ops, users) {
		wg.Add(1)
		go func(stream []CodecOp) {
			defer wg.Done()
			for _, op := range stream {
				f(op)
			}
		}(stream)
	}
	wg.Wait()
}

// partitionByUser splits ops into per-user streams, preserving order.
func partitionByUser(ops []CodecOp, users int) [][]CodecOp {
	streams := make([][]CodecOp, users)
	for _, op := range ops {
		streams[op.User] = append(streams[op.User], op)
	}
	var out [][]CodecOp
	for _, s := range streams {
		if len(s) > 0 {
			out = append(out, s)
		}
	}
	return out
}

// diffCodecRuns compares the binary leg's observable behavior against
// the JSON leg's, exactly.
func diffCodecRuns(js, bin *codecRun) []Divergence {
	divs := append(append([]Divergence{}, js.divs...), bin.divs...)
	divs = append(divs, diffStrings("decision", js.decisions, bin.decisions)...)
	divs = append(divs, diffStrings("request", js.requests, bin.requests)...)
	divs = append(divs, diffStrings("response", js.responses, bin.responses)...)
	divs = append(divs, diffStrings("audit-trace-id", js.traceIDs, bin.traceIDs)...)
	if js.audit != bin.audit {
		divs = append(divs, Divergence{Index: "binary", Kind: "audit", Query: -1,
			Detail: fmt.Sprintf("audit logs differ (%d vs %d bytes): %s",
				len(js.audit), len(bin.audit), firstDiffLine(js.audit, bin.audit))})
	}
	if len(js.achievedK) != len(bin.achievedK) {
		divs = append(divs, Divergence{Index: "binary", Kind: "achieved-k", Query: -1,
			Detail: fmt.Sprintf("bucket count %d vs %d", len(bin.achievedK), len(js.achievedK))})
	} else {
		for i := range js.achievedK {
			if js.achievedK[i] != bin.achievedK[i] {
				divs = append(divs, Divergence{Index: "binary", Kind: "achieved-k", Query: i,
					Detail: fmt.Sprintf("bucket %d: %d vs json %d", i, bin.achievedK[i], js.achievedK[i])})
			}
		}
	}
	if js.counters != bin.counters {
		divs = append(divs, Divergence{Index: "binary", Kind: "counters", Query: -1,
			Detail: fmt.Sprintf("binary %q vs json %q", bin.counters, js.counters)})
	}
	return divs
}

// diffStrings compares two ordered observation sequences.
func diffStrings(kind string, want, got []string) []Divergence {
	var divs []Divergence
	if len(want) != len(got) {
		divs = append(divs, Divergence{Index: "binary", Kind: kind, Query: -1,
			Detail: fmt.Sprintf("%d observations vs json %d", len(got), len(want))})
	}
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			divs = append(divs, Divergence{Index: "binary", Kind: kind, Query: i,
				Detail: fmt.Sprintf("binary %q vs json %q", got[i], want[i])})
		}
	}
	return divs
}

// firstDiffLine locates the first differing JSONL line for diagnostics.
func firstDiffLine(a, b string) string {
	al, bl := splitLines(a), splitLines(b)
	for i := 0; i < len(al) || i < len(bl); i++ {
		av, bv := "<missing>", "<missing>"
		if i < len(al) {
			av = al[i]
		}
		if i < len(bl) {
			bv = bl[i]
		}
		if av != bv {
			return fmt.Sprintf("line %d: json %s binary %s", i, av, bv)
		}
	}
	return "identical lines, length mismatch"
}

func splitLines(s string) []string {
	var out []string
	for len(s) > 0 {
		i := bytes.IndexByte([]byte(s), '\n')
		if i < 0 {
			out = append(out, s)
			break
		}
		out = append(out, s[:i])
		s = s[i+1:]
	}
	return out
}
