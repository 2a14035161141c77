package slo

import (
	"sync"
	"testing"
	"time"

	"histanon/internal/geo"
	"histanon/internal/phl"
)

// fakeStore scripts LTConsistentUsers per pseudonym series (keyed by the
// issuer carried in the first box's time start — see mkCapture).
type fakeStore struct {
	mu    sync.Mutex
	calls int
	fn    func(boxes []geo.STBox) []phl.UserID
}

func (f *fakeStore) LTConsistentUsers(boxes []geo.STBox) []phl.UserID {
	f.mu.Lock()
	f.calls++
	f.mu.Unlock()
	if f.fn == nil {
		return nil
	}
	return f.fn(boxes)
}

func (f *fakeStore) Calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// fakeClock drives the canary's wall clock deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestCanary(opts CanaryOptions) (*Canary, *fakeClock) {
	c := NewCanary(opts)
	// Base wall time far enough from zero that the first probe clears
	// the rate-limit gate (which starts at wall 0) for any interval.
	clk := &fakeClock{t: time.Unix(1_000_000_000, 0)}
	c.now = clk.now
	return c, clk
}

func box(x float64, t int64) geo.STBox {
	return geo.STBox{
		Area: geo.Rect{MinX: x, MinY: 0, MaxX: x + 10, MaxY: 10},
		Time: geo.Interval{Start: t, End: t + 60},
	}
}

func cap4(t, user int64, pseu string) Decision {
	return Decision{
		T: t, User: user, Pseudonym: pseu,
		Generalized: true, Forwarded: true,
		Box: box(float64(user), t),
	}
}

func TestCanaryAttackScoring(t *testing.T) {
	// Series "a" (user 1): unique candidate = the issuer → identified.
	// Series "b" (user 2): 4 candidates → 1/4 link probability.
	store := &fakeStore{fn: func(boxes []geo.STBox) []phl.UserID {
		if boxes[0].Area.MinX == 1 {
			return []phl.UserID{1}
		}
		return []phl.UserID{2, 3, 4, 5}
	}}
	c, _ := newTestCanary(CanaryOptions{Store: store, Interval: time.Second})
	c.capture(cap4(100, 1, "a"))
	c.capture(cap4(101, 1, "a"))
	c.capture(cap4(102, 2, "b"))

	res, ok := c.Probe()
	if !ok {
		t.Fatal("probe skipped")
	}
	if res.Captures != 3 || res.Series != 2 || res.Attacked != 2 {
		t.Fatalf("result = %+v", res)
	}
	if res.Identified != 1 {
		t.Fatalf("Identified = %d", res.Identified)
	}
	if want := (1.0 + 0.25) / 2; res.LinkProbability != want {
		t.Fatalf("LinkProbability = %g, want %g", res.LinkProbability, want)
	}
	if want := (1.0 + 4.0) / 2; res.AnonSetMean != want {
		t.Fatalf("AnonSetMean = %g, want %g", res.AnonSetMean, want)
	}
	if res.ReidentifiedRatio() != 0.5 {
		t.Fatalf("ReidentifiedRatio = %g", res.ReidentifiedRatio())
	}
	if res.T != 102 {
		t.Fatalf("T = %d", res.T)
	}
	// No pseudonym rotation in the captures: cross-rotation is -1.
	if res.CrossRotationMax != -1 {
		t.Fatalf("CrossRotationMax = %g, want -1", res.CrossRotationMax)
	}
	if store.Calls() != 2 {
		t.Fatalf("store attacked %d times, want 2", store.Calls())
	}
}

func TestCanaryCrossRotation(t *testing.T) {
	store := &fakeStore{fn: func([]geo.STBox) []phl.UserID { return []phl.UserID{1, 2} }}
	c, _ := newTestCanary(CanaryOptions{Store: store, Interval: time.Second})
	// User 7 rotates pseudonym mid-ring with spatially continuous,
	// closely-timed requests: the Tracking linker should assign a
	// nonnegative stitching likelihood.
	for i := int64(0); i < 6; i++ {
		pseu := "p1"
		if i >= 3 {
			pseu = "p2"
		}
		d := cap4(100+i*10, 7, pseu)
		d.Box = box(float64(i), 100+i*10)
		c.capture(d)
	}
	res, ok := c.Probe()
	if !ok {
		t.Fatal("probe skipped")
	}
	if res.CrossRotationMax < 0 {
		t.Fatalf("CrossRotationMax = %g, want >= 0 across a rotation", res.CrossRotationMax)
	}
}

func TestCanaryRateLimit(t *testing.T) {
	store := &fakeStore{fn: func([]geo.STBox) []phl.UserID { return []phl.UserID{1} }}
	c, clk := newTestCanary(CanaryOptions{Store: store, Interval: 5 * time.Second})
	c.capture(cap4(100, 1, "a"))

	if _, ok := c.Probe(); !ok {
		t.Fatal("first probe must run")
	}
	if _, ok := c.Probe(); ok {
		t.Fatal("second probe inside the interval must skip")
	}
	clk.advance(2 * time.Second)
	if _, ok := c.Probe(); ok {
		t.Fatal("probe 2s into a 5s interval must skip")
	}
	clk.advance(4 * time.Second)
	if _, ok := c.Probe(); !ok {
		t.Fatal("probe after the interval must run")
	}
	if c.Probes() != 2 {
		t.Fatalf("Probes = %d, want 2", c.Probes())
	}
	_, rl, _ := c.Skips()
	if rl != 2 {
		t.Fatalf("rate-limit skips = %d, want 2", rl)
	}
}

func TestCanaryRateLimitConcurrent(t *testing.T) {
	// Many goroutines racing Probe inside one interval: exactly one
	// probe runs (the CAS gate admits one winner).
	store := &fakeStore{fn: func([]geo.STBox) []phl.UserID { return []phl.UserID{1} }}
	c, _ := newTestCanary(CanaryOptions{Store: store, Interval: time.Hour})
	c.capture(cap4(100, 1, "a"))

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				c.Probe()
			}
		}()
	}
	// Concurrent captures must not race the probes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < 200; i++ {
			c.capture(cap4(200+i, i%5, "p"))
		}
	}()
	wg.Wait()
	if c.Probes() != 1 {
		t.Fatalf("Probes = %d, want exactly 1", c.Probes())
	}
	// The single probe attacks one store call per pseudonym series it
	// snapshotted (1 or 2, depending on how the capture goroutine raced).
	if calls := store.Calls(); calls < 1 || calls > 2 {
		t.Fatalf("store attacked %d times across 1 probe", calls)
	}
}

func TestCanaryPressureDefersSilently(t *testing.T) {
	underPressure := true
	store := &fakeStore{fn: func([]geo.STBox) []phl.UserID { return []phl.UserID{1} }}
	c, clk := newTestCanary(CanaryOptions{
		Store: store, Interval: time.Second,
		Pressure: func() bool { return underPressure },
	})
	c.capture(cap4(100, 1, "a"))

	for i := 0; i < 3; i++ {
		if _, ok := c.Probe(); ok {
			t.Fatal("probe under pressure must skip")
		}
		clk.advance(2 * time.Second)
	}
	p, _, _ := c.Skips()
	if p != 3 {
		t.Fatalf("pressure skips = %d, want 3", p)
	}
	if store.Calls() != 0 {
		t.Fatal("the store must not be touched under pressure")
	}
	// Starved long enough, the canary reads stale (it has work but no
	// probe has succeeded) — the /healthz degradation signal.
	if !c.Stale() {
		t.Fatal("starved canary must read stale")
	}
	if c.AgeSeconds() != -1 {
		t.Fatalf("AgeSeconds = %g before any probe", c.AgeSeconds())
	}

	// Pressure lifts: the next probe runs and staleness clears.
	underPressure = false
	if _, ok := c.Probe(); !ok {
		t.Fatal("probe after pressure lifts must run")
	}
	if c.Stale() {
		t.Fatal("fresh canary must not read stale")
	}
	clk.advance(10 * time.Second) // > 3 intervals
	if !c.Stale() {
		t.Fatal("canary must go stale three intervals after its last probe")
	}
}

func TestCanaryEmptyRingSkips(t *testing.T) {
	store := &fakeStore{}
	c, _ := newTestCanary(CanaryOptions{Store: store, Interval: time.Second})
	if _, ok := c.Probe(); ok {
		t.Fatal("probe over an empty ring must skip")
	}
	_, _, empty := c.Skips()
	if empty != 1 {
		t.Fatalf("empty skips = %d, want 1", empty)
	}
	if c.Stale() {
		t.Fatal("a canary with nothing to attack is not stale")
	}
}

func TestCanaryRingAndSampling(t *testing.T) {
	store := &fakeStore{}
	c, _ := newTestCanary(CanaryOptions{Store: store, Interval: time.Second, RingSize: 4, SampleEvery: 2})
	for i := int64(0); i < 16; i++ {
		c.capture(cap4(100+i, i, "p"))
	}
	// Every 2nd of 16 offered = 8 admitted; the ring keeps the last 4.
	if got := c.Captured(); got != 4 {
		t.Fatalf("Captured = %d, want 4", got)
	}
	caps := c.snapshotRing()
	for _, cp := range caps {
		if cp.t < 100+8 {
			t.Fatalf("ring kept a stale capture t=%d", cp.t)
		}
	}
}

func TestCanaryReadOnlyAgainstLiveStore(t *testing.T) {
	// Run real probes against a real PHL store and pin that the store's
	// contents are byte-for-byte untouched: same users, same sample
	// count. AttackStore makes writes impossible by construction; this
	// pins the property against interface drift.
	store := phl.NewStore()
	for u := phl.UserID(0); u < 10; u++ {
		for d := int64(0); d < 3; d++ {
			store.Record(u, geo.STPoint{P: geo.Point{X: float64(u), Y: float64(u)}, T: d * 86400})
		}
	}
	users, samples := store.NumUsers(), store.NumSamples()

	c, clk := newTestCanary(CanaryOptions{Store: store, Interval: time.Second})
	for i := int64(0); i < 8; i++ {
		d := cap4(0, int64(i%4), "p")
		d.Box = geo.STBox{
			Area: geo.Rect{MinX: -1, MinY: -1, MaxX: 20, MaxY: 20},
			Time: geo.Interval{Start: 0, End: 86400 * 3},
		}
		c.capture(d)
	}
	for i := 0; i < 5; i++ {
		if _, ok := c.Probe(); !ok {
			t.Fatalf("probe %d skipped", i)
		}
		clk.advance(2 * time.Second)
	}
	if store.NumUsers() != users || store.NumSamples() != samples {
		t.Fatalf("canary mutated the store: users %d->%d samples %d->%d",
			users, store.NumUsers(), samples, store.NumSamples())
	}
}

func TestCanaryNilStorePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCanary with a nil store must panic")
		}
	}()
	NewCanary(CanaryOptions{})
}

func TestCanaryRunLoop(t *testing.T) {
	store := &fakeStore{fn: func([]geo.STBox) []phl.UserID { return []phl.UserID{1} }}
	c := NewCanary(CanaryOptions{Store: store, Interval: 5 * time.Millisecond})
	c.capture(cap4(100, 1, "a"))
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { c.Run(stop); close(done) }()
	deadline := time.Now().Add(2 * time.Second)
	for c.Probes() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
	if c.Probes() == 0 {
		t.Fatal("Run never probed")
	}
}

// TestCanaryAttacksRingInTimeOrder: once the ring wraps, the probe must
// still see each user's captures oldest first. User 7 sends three
// captures under p1, then three under p2 on one box 100 km away, into a
// 4-slot ring. In time order the ring holds one rotation, p1 → p2,
// which the Tracking linker cannot bridge (100 km in no time): 0. Read
// in slot order it would hold p2, p2, p1, p2, two rotations that never
// happened, and pair p2 with p2 at likelihood 1.
func TestCanaryAttacksRingInTimeOrder(t *testing.T) {
	store := &fakeStore{fn: func([]geo.STBox) []phl.UserID { return []phl.UserID{7, 8} }}
	c, _ := newTestCanary(CanaryOptions{Store: store, Interval: time.Second, RingSize: 4})
	for i := int64(0); i < 6; i++ {
		d := cap4(100+i*10, 7, "p1")
		d.Box = box(0, 100+i*10)
		if i >= 3 {
			d.Pseudonym = "p2"
			d.Box = box(1e5, 130)
		}
		c.capture(d)
	}
	caps := c.snapshotRing()
	for i := 1; i < len(caps); i++ {
		if caps[i].t < caps[i-1].t {
			t.Fatalf("snapshot not in time order: capture %d at t=%d after t=%d", i, caps[i].t, caps[i-1].t)
		}
	}
	res, ok := c.Probe()
	if !ok {
		t.Fatal("probe skipped")
	}
	if res.Captures != 4 || res.Series != 2 || res.T != 150 {
		t.Fatalf("result = %+v", res)
	}
	if res.CrossRotationMax != 0 {
		t.Fatalf("CrossRotationMax = %g, want 0 across the one real rotation", res.CrossRotationMax)
	}
}
