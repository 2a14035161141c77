package main

import (
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"histanon/internal/geo"
	"histanon/internal/metrics"
	"histanon/internal/obs"
	"histanon/internal/phl"
	"histanon/internal/resilience"
	"histanon/internal/stindex"
	"histanon/internal/ts"
	"histanon/internal/wire"
)

// seqHeader carries a measured call's sequence number in the traced
// run, so the handler decorator's serve time can be subtracted from
// the client's round trip of the same call.
const seqHeader = "X-Perfbench-Seq"

// layers holds the traced run's timings, taken from outside the
// program: decorators at the server's existing seams (ts.Config.Store,
// ts.Config.Index, the outbox handed to ts.New, the SP delivery sink,
// the inbox and the http.Handler). Nothing is recorded while on is
// false, so set-up traffic does not count.
type layers struct {
	on    atomic.Bool
	base  time.Time
	route string // the workload's measured route

	record, history, insert, knn, spAnswer timer
	knnNs, serveNs, queueWaitNs, inboxNs   sampler
	shed, serveTotal                       atomic.Int64

	serveBySeq sync.Map // seq → serve ns
	enqueued   sync.Map // msgid → ns since base (TryDeliver)
	sinkAt     sync.Map // msgid → ns since base (sink entry)
}

func newLayers(base time.Time, route string) *layers {
	return &layers{base: base, route: route}
}

func (l *layers) now() int64 { return time.Since(l.base).Nanoseconds() }

// timer accumulates calls and their total time.
type timer struct{ n, ns atomic.Int64 }

func (t *timer) add(d time.Duration) {
	t.n.Add(1)
	t.ns.Add(d.Nanoseconds())
}

// sampler keeps every sample, for percentiles.
type sampler struct {
	mu sync.Mutex
	v  []float64
}

func (s *sampler) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *sampler) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.v...)
}

// wrapStore decorates the PHL store. A store that reports faults (the
// durable tiered store) keeps reporting them through the decorator, so
// the server's fail-closed path stays wired.
func (l *layers) wrapStore(s phl.Storer) phl.Storer {
	base := &timedStore{inner: s, l: l}
	if f, ok := s.(ts.FaultyStorage); ok {
		return &timedFaultyStore{timedStore: base, faulty: f}
	}
	return base
}

type timedStore struct {
	inner phl.Storer
	l     *layers
}

func (s *timedStore) Record(u phl.UserID, p geo.STPoint) {
	if !s.l.on.Load() {
		s.inner.Record(u, p)
		return
	}
	t0 := time.Now()
	s.inner.Record(u, p)
	s.l.record.add(time.Since(t0))
}

func (s *timedStore) History(u phl.UserID) *phl.History {
	if !s.l.on.Load() {
		return s.inner.History(u)
	}
	t0 := time.Now()
	h := s.inner.History(u)
	s.l.history.add(time.Since(t0))
	return h
}

func (s *timedStore) Users() []phl.UserID              { return s.inner.Users() }
func (s *timedStore) NumUsers() int                    { return s.inner.NumUsers() }
func (s *timedStore) NumSamples() int                  { return s.inner.NumSamples() }
func (s *timedStore) UsersIn(b geo.STBox) []phl.UserID { return s.inner.UsersIn(b) }
func (s *timedStore) CountUsersIn(b geo.STBox) int     { return s.inner.CountUsersIn(b) }
func (s *timedStore) LTConsistentUsers(boxes []geo.STBox) []phl.UserID {
	return s.inner.LTConsistentUsers(boxes)
}

// WriteSnapshot forwards the full-snapshot hook ts.WritePHLSnapshot
// looks for; both PHL stores implement it.
func (s *timedStore) WriteSnapshot(w io.Writer) error {
	return s.inner.(interface{ WriteSnapshot(io.Writer) error }).WriteSnapshot(w)
}

// timedFaultyStore is timedStore for a store with ts.FaultyStorage and
// ts.MetricsSource (the tiered store).
type timedFaultyStore struct {
	*timedStore
	faulty ts.FaultyStorage
}

func (s *timedFaultyStore) StorageFaults() int64 { return s.faulty.StorageFaults() }
func (s *timedFaultyStore) StorageFailed() bool  { return s.faulty.StorageFailed() }
func (s *timedFaultyStore) RegisterMetrics(r *metrics.Registry) {
	if m, ok := s.inner.(ts.MetricsSource); ok {
		m.RegisterMetrics(r)
	}
}

// wrapIndex decorates the spatio-temporal index (the seam chaos.SlowIndex
// uses).
func (l *layers) wrapIndex(idx stindex.Index) stindex.Index {
	return &timedIndex{inner: idx, l: l}
}

type timedIndex struct {
	inner stindex.Index
	l     *layers
}

func (x *timedIndex) Insert(u phl.UserID, p geo.STPoint) {
	if !x.l.on.Load() {
		x.inner.Insert(u, p)
		return
	}
	t0 := time.Now()
	x.inner.Insert(u, p)
	x.l.insert.add(time.Since(t0))
}

func (x *timedIndex) KNearestUsers(q geo.STPoint, k int, m geo.STMetric, exclude map[phl.UserID]bool) []stindex.UserPoint {
	if !x.l.on.Load() {
		return x.inner.KNearestUsers(q, k, m, exclude)
	}
	t0 := time.Now()
	out := x.inner.KNearestUsers(q, k, m, exclude)
	d := time.Since(t0)
	x.l.knn.add(d)
	x.l.knnNs.add(float64(d.Nanoseconds()))
	return out
}

func (x *timedIndex) Len() int                            { return x.inner.Len() }
func (x *timedIndex) UsersInBox(b geo.STBox) []phl.UserID { return x.inner.UsersInBox(b) }
func (x *timedIndex) CountUsersInBox(b geo.STBox) int     { return x.inner.CountUsersInBox(b) }

// timedOutbox stamps each admitted request and forwards every outbox
// interface the resilience queue implements (ts.TracedOutbox, hence
// ts.FallibleOutbox, and ts.MetricsSource), so the server keeps its
// fail-closed admission path.
type timedOutbox struct {
	inner *resilience.Outbox
	l     *layers
}

func (o *timedOutbox) stamp(req *wire.Request) {
	if o.l.on.Load() {
		o.l.enqueued.Store(req.ID, o.l.now())
	}
}

func (o *timedOutbox) settle(req *wire.Request, err error) error {
	if err != nil {
		o.l.enqueued.Delete(req.ID)
	}
	return err
}

func (o *timedOutbox) Deliver(req *wire.Request) {
	o.stamp(req)
	o.inner.Deliver(req)
}

func (o *timedOutbox) TryDeliver(req *wire.Request) error {
	o.stamp(req)
	return o.settle(req, o.inner.TryDeliver(req))
}

func (o *timedOutbox) TryDeliverTraced(req *wire.Request, tc obs.TraceContext) error {
	o.stamp(req)
	return o.settle(req, o.inner.TryDeliverTraced(req, tc))
}

func (o *timedOutbox) RegisterMetrics(r *metrics.Registry) { o.inner.RegisterMetrics(r) }

// timedSink wraps the SP: queue wait is TryDeliver → sink entry, the
// answer time is the whole SP call (answer, route back, inbox).
func (l *layers) timedSink(sp func(*wire.Request) error) resilience.Delivery {
	return resilience.DeliveryFunc(func(req *wire.Request) error {
		if !l.on.Load() {
			return sp(req)
		}
		now := l.now()
		if v, ok := l.enqueued.LoadAndDelete(req.ID); ok {
			l.queueWaitNs.add(float64(now - v.(int64)))
		}
		l.sinkAt.Store(req.ID, now)
		t0 := time.Now()
		err := sp(req)
		l.spAnswer.add(time.Since(t0))
		return err
	})
}

// received notes an answer landing in an inbox (sink → inbox time).
func (l *layers) received(id wire.MsgID) {
	if !l.on.Load() {
		return
	}
	if v, ok := l.sinkAt.LoadAndDelete(id); ok {
		l.inboxNs.add(float64(l.now() - v.(int64)))
	}
}

// timedHandler times ServeHTTP of the service routes: every call counts
// toward the layer budget, and the workload's measured route gives the
// serve-time percentiles.
type timedHandler struct {
	inner http.Handler
	l     *layers
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	if !h.l.on.Load() || (path != "/v1/batch" && path != "/v1/request") {
		h.inner.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	t0 := time.Now()
	h.inner.ServeHTTP(sw, r)
	d := time.Since(t0).Nanoseconds()
	h.l.serveTotal.Add(d)
	if path != h.l.route {
		return
	}
	h.l.serveNs.add(float64(d))
	if sw.status == http.StatusServiceUnavailable {
		h.l.shed.Add(1)
	}
	if s := r.Header.Get(seqHeader); s != "" {
		if seq, err := strconv.ParseInt(s, 10, 64); err == nil {
			h.l.serveBySeq.Store(seq, d)
		}
	}
}

// serveOf returns the serve time of call seq, if recorded.
func (l *layers) serveOf(seq int64) (int64, bool) {
	v, ok := l.serveBySeq.Load(seq)
	if !ok {
		return 0, false
	}
	return v.(int64), true
}
