package phl

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"histanon/internal/geo"
)

func rect(a, b, c, d float64) geo.Rect {
	return geo.Rect{MinX: a, MinY: b, MaxX: c, MaxY: d}
}

func iv(a, b int64) geo.Interval { return geo.Interval{Start: a, End: b} }

func pt(x, y float64, t int64) geo.STPoint {
	return geo.STPoint{P: geo.Point{X: x, Y: y}, T: t}
}

func TestHistoryAppendKeepsOrder(t *testing.T) {
	var h History
	h.Append(pt(0, 0, 10))
	h.Append(pt(1, 1, 30))
	h.Append(pt(2, 2, 20)) // out of order
	h.Append(pt(3, 3, 5))  // out of order, front
	if h.Len() != 4 {
		t.Fatalf("Len=%d", h.Len())
	}
	want := []int64{5, 10, 20, 30}
	for i, w := range want {
		if got := h.At(i).T; got != w {
			t.Fatalf("At(%d).T=%d want %d", i, got, w)
		}
	}
}

func TestHistoryAppendOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h History
	for i := 0; i < 500; i++ {
		h.Append(pt(0, 0, int64(rng.Intn(1000))))
	}
	pts := h.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i].T < pts[i-1].T {
			t.Fatalf("history out of order at %d: %d < %d", i, pts[i].T, pts[i-1].T)
		}
	}
}

func TestHistoryIn(t *testing.T) {
	var h History
	h.Append(pt(0, 0, 0))
	h.Append(pt(5, 5, 10))
	h.Append(pt(10, 10, 20))
	h.Append(pt(50, 50, 15)) // inside the time window but outside the area
	box := geo.STBox{Area: rect(0, 0, 20, 20), Time: iv(5, 20)}
	got := h.In(box)
	if len(got) != 2 {
		t.Fatalf("In returned %d points: %v", len(got), got)
	}
	if !h.AnyIn(box) {
		t.Fatal("AnyIn must be true")
	}
	empty := geo.STBox{Area: rect(0, 0, 1, 1), Time: iv(100, 200)}
	if h.AnyIn(empty) {
		t.Fatal("AnyIn must be false for an empty region")
	}
}

func TestHistoryClosest(t *testing.T) {
	var h History
	h.Append(pt(0, 0, 0))
	h.Append(pt(100, 0, 100))
	h.Append(pt(200, 0, 200))
	m := geo.STMetric{TimeScale: 1}
	best, d, ok := h.Closest(pt(95, 0, 95), m)
	if !ok || best.T != 100 {
		t.Fatalf("Closest=%v d=%g ok=%v", best, d, ok)
	}
	// A spatially distant but temporally near point must lose to a
	// temporally distant but spatially near one when scales say so.
	var h2 History
	h2.Append(pt(0, 0, 1000)) // far in time
	h2.Append(pt(5000, 0, 0)) // far in space
	best, _, _ = h2.Closest(pt(0, 0, 0), m)
	if best.T != 1000 {
		t.Fatalf("expected the 1000s-away point, got %v", best)
	}
}

func TestHistoryClosestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := geo.STMetric{TimeScale: 2.5}
	var h History
	for i := 0; i < 400; i++ {
		h.Append(pt(rng.Float64()*1000, rng.Float64()*1000, int64(rng.Intn(5000))))
	}
	for trial := 0; trial < 200; trial++ {
		q := pt(rng.Float64()*1000, rng.Float64()*1000, int64(rng.Intn(5000)))
		got, gd, ok := h.Closest(q, m)
		if !ok {
			t.Fatal("unexpected empty history")
		}
		bestD := -1.0
		for _, p := range h.Points() {
			if d := m.Dist(p, q); bestD < 0 || d < bestD {
				bestD = d
			}
		}
		if gd != bestD {
			t.Fatalf("Closest distance %g != brute force %g (point %v)", gd, bestD, got)
		}
	}
}

func TestHistoryClosestEmpty(t *testing.T) {
	var h History
	if _, _, ok := h.Closest(pt(0, 0, 0), geo.STMetric{}); ok {
		t.Fatal("empty history must report ok=false")
	}
}

func TestLTConsistent(t *testing.T) {
	var h History
	h.Append(pt(10, 10, 100))
	h.Append(pt(20, 20, 200))
	boxes := []geo.STBox{
		{Area: rect(0, 0, 15, 15), Time: iv(90, 110)},
		{Area: rect(15, 15, 25, 25), Time: iv(190, 210)},
	}
	if !h.LTConsistent(boxes) {
		t.Fatal("history must be LT-consistent")
	}
	boxes = append(boxes, geo.STBox{Area: rect(0, 0, 100, 100), Time: iv(300, 400)})
	if h.LTConsistent(boxes) {
		t.Fatal("missing the third box: must be inconsistent")
	}
	if !h.LTConsistent(nil) {
		t.Fatal("every history is consistent with no requests")
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	s.Record(1, pt(0, 0, 0))
	s.Record(2, pt(10, 10, 0))
	s.Record(1, pt(1, 1, 10))
	if s.NumUsers() != 2 || s.NumSamples() != 3 {
		t.Fatalf("NumUsers=%d NumSamples=%d", s.NumUsers(), s.NumSamples())
	}
	if got := s.Users(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Users=%v", got)
	}
	if h := s.History(1); h == nil || h.Len() != 2 {
		t.Fatal("History(1) wrong")
	}
	if s.History(99) != nil {
		t.Fatal("unknown user must have nil history")
	}
}

func TestStoreUsersIn(t *testing.T) {
	s := NewStore()
	s.Record(1, pt(0, 0, 0))
	s.Record(2, pt(100, 100, 0))
	s.Record(3, pt(5, 5, 50))
	box := geo.STBox{Area: rect(-10, -10, 10, 10), Time: iv(0, 100)}
	got := s.UsersIn(box)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("UsersIn=%v", got)
	}
	if s.CountUsersIn(box) != 2 {
		t.Fatalf("CountUsersIn=%d", s.CountUsersIn(box))
	}
}

func TestStoreLTConsistentUsers(t *testing.T) {
	s := NewStore()
	// Users 1 and 2 share a morning area; only 1 visits the office.
	s.Record(1, pt(0, 0, 100))
	s.Record(1, pt(500, 500, 200))
	s.Record(2, pt(2, 2, 105))
	s.Record(3, pt(900, 900, 100))
	morning := geo.STBox{Area: rect(-5, -5, 5, 5), Time: iv(90, 110)}
	office := geo.STBox{Area: rect(495, 495, 505, 505), Time: iv(190, 210)}

	got := s.LTConsistentUsers([]geo.STBox{morning})
	if len(got) != 2 {
		t.Fatalf("morning set=%v", got)
	}
	got = s.LTConsistentUsers([]geo.STBox{morning, office})
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("morning+office set=%v", got)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			s.Record(UserID(i%7), pt(float64(i), 0, int64(i)))
		}
		close(done)
	}()
	for i := 0; i < 1000; i++ {
		s.NumUsers()
		s.CountUsersIn(geo.STBox{Area: rect(0, 0, 10, 10), Time: iv(0, 10)})
	}
	<-done
	if s.NumSamples() != 1000 {
		t.Fatalf("NumSamples=%d", s.NumSamples())
	}
}

// A view keeps the samples it was taken with: neither an in-order
// append nor an out-of-order insert into the History changes it.
func TestHistoryViewIsStable(t *testing.T) {
	var h History
	for _, ts := range []int64{10, 20, 30, 40} {
		h.Append(pt(float64(ts), 0, ts))
	}
	v := h.View()
	if h.View() != v {
		t.Fatal("View is not cached between Appends")
	}
	want := append([]geo.STPoint(nil), v.Points()...)
	h.Append(pt(0, 0, 50)) // in order
	h.Append(pt(0, 0, 15)) // out of order: would shift samples v sees
	h.Append(pt(0, 0, 5))
	if v.Len() != len(want) {
		t.Fatalf("view Len changed: %d, want %d", v.Len(), len(want))
	}
	for i, p := range v.Points() {
		if p != want[i] {
			t.Fatalf("view sample %d changed: %+v, want %+v", i, p, want[i])
		}
	}
	if cap(v.Points()) != v.Len() {
		t.Fatal("view exposes capacity past its samples")
	}
	if h.View() == v || h.View().Len() != 7 {
		t.Fatal("View after Append does not see the new samples")
	}
	got := []int64{}
	for _, p := range h.Points() {
		got = append(got, p.T)
	}
	for i, w := range []int64{5, 10, 15, 20, 30, 40, 50} {
		if got[i] != w {
			t.Fatalf("history times %v, want sorted insert", got)
		}
	}
}

// A History built from points appends after its newest one and inserts
// an older one at its sorted position, without touching a view.
func TestHistoryFromPointsAppendKeepsOrder(t *testing.T) {
	h := HistoryFromPoints([]geo.STPoint{pt(0, 0, 10), pt(0, 0, 20), pt(0, 0, 30)})
	v := h.View()
	h.Append(pt(1, 0, 25)) // out of order, after a view
	h.Append(pt(2, 0, 40))
	h.Append(pt(3, 0, 35))
	got := []int64{}
	for _, p := range h.Points() {
		got = append(got, p.T)
	}
	want := []int64{10, 20, 25, 30, 35, 40}
	if len(got) != len(want) {
		t.Fatalf("history times %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("history times %v, want %v", got, want)
		}
	}
	if v.Len() != 3 || v.At(2).T != 30 {
		t.Fatalf("view changed: %v", v.Points())
	}
}

// A view taken at any length survives each way an Append touches the
// array: an in-order append (which grows a full array), an
// out-of-order insert into a full array (which grows it) and one into
// an array with room that the view shares (which copies it, at the same
// capacity). The view keeps its samples and no spare capacity, and the
// History stays time-sorted with arrival-order ties.
func TestHistoryViewsSurviveGrowth(t *testing.T) {
	// Sample i is the i-th to arrive (X = i); pairs share a T.
	sample := func(i int) geo.STPoint { return pt(float64(i), 0, int64(10*(i/2))) }
	withCap := func(n, c int) *History {
		pts := make([]geo.STPoint, n, c)
		for i := range pts {
			pts[i] = sample(i)
		}
		return HistoryFromPoints(pts)
	}
	var appended History // grows by in-order appends only
	appended.Append(sample(0))
	for n := 1; n <= 300; n++ {
		// Older than the newest sample; from n = 3 on it ties an
		// earlier pair and belongs right after it.
		early := pt(float64(n), 0, int64(10*((n-1)/2-1)))
		cases := []struct {
			name   string
			h      *History
			p      geo.STPoint
			maxCap int // the history's capacity after, when bounded here
		}{
			{"in-order append", &appended, sample(n), 0},
			{"out-of-order insert at n == cap", withCap(n, n), early, 0},
			{"out-of-order insert at n < cap", withCap(n, n+1), early, cap(slices.Grow([]geo.STPoint(nil), n+1))},
		}
		for _, c := range cases {
			v := c.h.View()
			want := append([]geo.STPoint(nil), v.Points()...)
			c.h.Append(c.p)
			if v.Len() != n {
				t.Fatalf("n=%d %s: view Len %d", n, c.name, v.Len())
			}
			for i, p := range v.Points() {
				if p != want[i] {
					t.Fatalf("n=%d %s: view sample %d changed from %+v to %+v", n, c.name, i, want[i], p)
				}
			}
			if cap(v.Points()) != v.Len() {
				t.Fatalf("n=%d %s: view exposes capacity %d past its %d samples", n, c.name, cap(v.Points()), v.Len())
			}
			pts := c.h.Points()
			if len(pts) != n+1 {
				t.Fatalf("n=%d %s: history Len %d", n, c.name, len(pts))
			}
			if c.maxCap > 0 && cap(pts) > c.maxCap {
				t.Fatalf("n=%d %s: the copy grew the array to %d samples, want at most %d", n, c.name, cap(pts), c.maxCap)
			}
			for i := 1; i < len(pts); i++ {
				if a, b := pts[i-1], pts[i]; a.T > b.T || a.T == b.T && a.P.X > b.P.X {
					t.Fatalf("n=%d %s: samples %d and %d out of order: %+v, %+v", n, c.name, i-1, i, a, b)
				}
			}
		}
	}
}

// After n in-order appends the array holds at most n−1 + max(32,
// (n−1)/8) samples, rounded up to the allocator's size class: the
// growth rule's bound on slack. append's doubling, which holds up to
// 2(n−1), breaks it from 65 samples on.
func TestHistoryAppendSlackBound(t *testing.T) {
	var h History
	for n := 1; n <= 10000; n++ {
		h.Append(pt(0, 0, int64(n)))
		limit := cap(slices.Grow([]geo.STPoint(nil), n-1+max(32, (n-1)/8)))
		if c := cap(h.Points()); c > limit {
			t.Fatalf("after %d appends the array holds %d samples, want at most %d", n, c, limit)
		}
	}
}

// TestStoreHeapPerSample is the PHL's heap guard. A crowd shaped like
// perfbench's ingest stream, recorded in time order in 512-sample runs,
// must cost at most 30 B of live heap per 24-byte sample. The crowd's
// 2,000 users hold what ingest's 10⁴ do (seed 1): 101–265 samples,
// 115 at p10, 138 at the median and 164 at p90. Under append's
// doubling most of those histories sit in 256-sample arrays, and the
// store holds about 38 B per sample.
func TestStoreHeapPerSample(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is skewed under -race")
	}
	const (
		users = 2000
		span  = 4 * 86400
	)
	// ingest's per-user sample counts at these quantiles; user u takes
	// the count at quantile (u+½)/users, interpolated.
	quantiles := []struct {
		q float64
		n int
	}{{0, 101}, {0.01, 106}, {0.1, 115}, {0.25, 125}, {0.5, 138}, {0.75, 153}, {0.9, 164}, {0.99, 209}, {1, 265}}
	count := func(q float64) int {
		i := sort.Search(len(quantiles), func(i int) bool { return quantiles[i].q >= q })
		a, b := quantiles[i-1], quantiles[i]
		return a.n + int(float64(b.n-a.n)*(q-a.q)/(b.q-a.q))
	}
	rng := rand.New(rand.NewSource(1))
	var samples []Sample
	for u := 0; u < users; u++ {
		for i := count((float64(u) + 0.5) / users); i > 0; i-- {
			samples = append(samples, Sample{User: UserID(u), Point: pt(rng.Float64()*2e4, rng.Float64()*2e4, rng.Int63n(span))})
		}
	}
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].Point.T < samples[j].Point.T })

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewStore()
	for i := 0; i < len(samples); i += 512 {
		s.RecordBatch(samples[i:min(i+512, len(samples))])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perSample := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(s.NumSamples())
	runtime.KeepAlive(s)
	runtime.KeepAlive(samples) // live in both readings, so not counted
	t.Logf("%d samples, %.2f B of live heap each", s.NumSamples(), perSample)
	if perSample > 30 {
		t.Fatalf("the store holds %.2f B of live heap per sample, want at most 30", perSample)
	}
}

// Views handed out by Store.History can be read while Record keeps
// appending in order and inserting out of order: a view never changes
// and, under -race, reading it races with nothing.
func TestStoreHistoryViewsUnderConcurrentRecord(t *testing.T) {
	const users, n = 3, 3000
	s := NewStore()
	var recorded atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			ts := int64(i) * 10
			if i%4 == 3 {
				ts = int64(i) * 5 // behind the user's newest sample
			}
			s.Record(UserID(i%users), pt(float64(i%23), float64(i%17), ts))
			recorded.Add(1)
		}
	}()
	finished := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	m := geo.STMetric{}
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(u UserID) {
			defer wg.Done()
			for q := int64(0); !finished(); q++ {
				h := s.History(u)
				if h == nil {
					continue
				}
				before := append([]geo.STPoint(nil), h.Points()...)
				if _, _, ok := h.Closest(pt(5, 5, q*37%(n*10)), m); !ok {
					t.Error("Closest found nothing in a non-empty view")
					return
				}
				// Let the writer move on before looking again.
				for target := recorded.Load() + users; recorded.Load() < target && !finished(); {
					runtime.Gosched()
				}
				if h.Len() != len(before) {
					t.Errorf("view Len went from %d to %d", len(before), h.Len())
					return
				}
				for i, p := range h.Points() {
					if p != before[i] {
						t.Errorf("view sample %d changed from %+v to %+v", i, before[i], p)
						return
					}
				}
			}
		}(UserID(r))
	}
	wg.Wait()
	<-done
	if s.NumSamples() != n {
		t.Fatalf("NumSamples=%d", s.NumSamples())
	}
	for u := UserID(0); u < users; u++ {
		pts := s.History(u).Points()
		for i := 1; i < len(pts); i++ {
			if pts[i].T < pts[i-1].T {
				t.Fatalf("user %d history out of order at %d", u, i)
			}
		}
	}
}

func TestUserIDString(t *testing.T) {
	if got := UserID(42).String(); got != "u42" {
		t.Fatalf("String=%q", got)
	}
}

func TestClosestNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := geo.STMetric{TimeScale: 1.7}
	var h History
	for i := 0; i < 300; i++ {
		h.Append(pt(rng.Float64()*1000, rng.Float64()*1000, int64(rng.Intn(4000))))
	}
	for trial := 0; trial < 100; trial++ {
		q := pt(rng.Float64()*1000, rng.Float64()*1000, int64(rng.Intn(4000)))
		n := 1 + rng.Intn(8)
		got := h.ClosestN(q, n, m)
		if len(got) != n {
			t.Fatalf("got %d want %d", len(got), n)
		}
		// Brute force distances.
		var dists []float64
		for _, p := range h.Points() {
			dists = append(dists, m.Dist(p, q))
		}
		sortFloats(dists)
		for i, p := range got {
			if d := m.Dist(p, q); d != dists[i] {
				t.Fatalf("rank %d: %g want %g", i, d, dists[i])
			}
			if i > 0 && m.Dist(got[i-1], q) > m.Dist(p, q) {
				t.Fatal("result not ordered")
			}
		}
	}
}

func TestClosestNEdgeCases(t *testing.T) {
	var h History
	if got := h.ClosestN(pt(0, 0, 0), 3, geo.STMetric{}); got != nil {
		t.Fatal("empty history must return nil")
	}
	h.Append(pt(1, 1, 1))
	if got := h.ClosestN(pt(0, 0, 0), 0, geo.STMetric{}); got != nil {
		t.Fatal("n=0 must return nil")
	}
	if got := h.ClosestN(pt(0, 0, 0), 5, geo.STMetric{}); len(got) != 1 {
		t.Fatalf("n beyond size: %d", len(got))
	}
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
