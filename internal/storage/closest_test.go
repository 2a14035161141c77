package storage

import (
	"math"
	"math/rand"
	"testing"

	"histanon/internal/geo"
	"histanon/internal/phl"
)

// historyClosest is the reference answer: History(u).Closest(q, m),
// with ok false for an unknown user.
func historyClosest(s phl.Storer, u phl.UserID, q geo.STPoint, m geo.STMetric) (geo.STPoint, float64, bool) {
	h := s.History(u)
	if h == nil {
		return geo.STPoint{}, 0, false
	}
	return h.Closest(q, m)
}

// TestTieredClosestMatchesHistory holds both stores' Closest to
// History(u).Closest(q, m), point, distance and ok, over 60 seeded
// workloads: lattice positions and integer times so that equal
// distances are common, late arrivals that land below the cut, an
// unknown user, present and historical queries, time scales from 0.1
// to 1e12, and a close and reopen of the tiered store midway. It also
// counts the present queries the tiered store answered without a cold
// read, so that a store which always merged would fail.
func TestTieredClosestMatchesHistory(t *testing.T) {
	const users = 8
	metrics := []geo.STMetric{{TimeScale: 0.1}, {TimeScale: 1}, {TimeScale: 1e12}}
	checks, fromMemory, merged := 0, 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		window := int64(40 + rng.Intn(80))
		opts := Options{
			Dir:              "store",
			FS:               NewMemFS(),
			SnapshotEvery:    16 + rng.Intn(48),
			HotWindow:        window,
			MaxDeltas:        3,
			ColdCacheEntries: 4,
		}
		ts := mustOpen(t, opts)
		ref := phl.NewStore()
		lattice := func() float64 { return float64(rng.Intn(5)) * 50 }
		now := int64(0)
		probe := func() {
			if ts.cut == math.MinInt64 {
				return
			}
			for i := 0; i < 100; i++ {
				u := phl.UserID(rng.Intn(users + 1)) // users itself is unknown
				q := geo.STPoint{P: geo.Point{X: lattice(), Y: lattice()}}
				present := rng.Intn(2) == 0
				if present {
					q.T = ts.cut + rng.Int63n(now-ts.cut+window)
				} else {
					q.T = ts.cut - 1 - rng.Int63n(3*window)
				}
				for _, m := range metrics {
					before := ts.Stats()
					gp, gd, gok := ts.Closest(u, q, m)
					after := ts.Stats()
					if present {
						if after.ColdHits+after.ColdMisses == before.ColdHits+before.ColdMisses {
							fromMemory++
						} else {
							merged++
						}
					}
					wp, wd, wok := historyClosest(ts, u, q, m)
					rp, rd, rok := historyClosest(ref, u, q, m)
					sp, sd, sok := ref.Closest(u, q, m)
					if gp != wp || gd != wd || gok != wok {
						t.Fatalf("seed %d: tiered Closest(%d, %+v, %g) = %+v %g %v, its History gives %+v %g %v",
							seed, u, q, m.TimeScale, gp, gd, gok, wp, wd, wok)
					}
					if wp != rp || wd != rd || wok != rok || sp != rp || sd != rd || sok != rok {
						t.Fatalf("seed %d: Closest(%d, %+v, %g): tiered %+v %g %v, memory History %+v %g %v, memory Closest %+v %g %v",
							seed, u, q, m.TimeScale, wp, wd, wok, rp, rd, rok, sp, sd, sok)
					}
					checks++
				}
			}
		}
		for i := 0; i < 600; i++ {
			now += int64(rng.Intn(4))
			p := geo.STPoint{P: geo.Point{X: lattice(), Y: lattice()}, T: now}
			if rng.Intn(8) == 0 {
				p.T -= rng.Int63n(3 * window) // a late arrival, often below the cut
			}
			u := phl.UserID(rng.Intn(users))
			ref.Record(u, p)
			ts.Record(u, p)
			if i%100 == 99 {
				probe()
			}
			if i == 300 {
				if err := ts.Close(); err != nil {
					t.Fatal(err)
				}
				ts = mustOpen(t, opts)
			}
		}
		probe()
		if err := ts.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if fromMemory == 0 || merged == 0 {
		t.Fatalf("present queries: %d answered from memory, %d merged; want both paths taken", fromMemory, merged)
	}
	t.Logf("%d checks; present queries: %d from memory, %d merged", checks, fromMemory, merged)
}

// TestTieredClosestUnderConcurrentRecord reads closest samples, present
// and historical, while another goroutine records and the store demotes
// and snapshots; the race detector checks the two sides.
func TestTieredClosestUnderConcurrentRecord(t *testing.T) {
	ts := mustOpen(t, Options{Dir: "store", FS: NewMemFS(), HotWindow: 50, SnapshotEvery: 32, ColdCacheEntries: 2})
	defer ts.Close()
	const n, users = 2000, 5
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			ts.Record(phl.UserID(i%users), geo.STPoint{P: geo.Point{X: float64(i % 13)}, T: int64(i)})
		}
	}()
	for i := 0; i < n; i++ {
		q := geo.STPoint{P: geo.Point{X: 6}, T: int64(i)}
		if i%2 == 1 {
			q.T /= 4 // most likely below the cut
		}
		ts.Closest(phl.UserID(i%users), q, geo.STMetric{})
	}
	<-done
	if st := ts.Stats(); st.Demotions == 0 {
		t.Fatalf("no demotion while reading: %+v", st)
	}
}

// TestTieredClosestPresentReadsNoColdRun checks where the saving sits:
// a present-time closest-sample read for a user with cold runs leaves
// the cold-run counters unchanged, while a historical one reads them.
func TestTieredClosestPresentReadsNoColdRun(t *testing.T) {
	ts := mustOpen(t, Options{Dir: "store", FS: NewMemFS(), HotWindow: 100, SnapshotEvery: 1 << 20, ColdCacheEntries: 4})
	defer ts.Close()
	const users = 10
	for step := int64(0); step <= 100; step++ {
		for u := 0; u < users; u++ {
			ts.Record(phl.UserID(u), geo.STPoint{P: geo.Point{X: float64(u * 10), Y: float64(step)}, T: step * 10})
		}
	}
	if err := ts.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := ts.Stats(); st.ColdSamples == 0 || ts.cut != 900 {
		t.Fatalf("setup: %d cold samples, cut %d; want some and 900", st.ColdSamples, ts.cut)
	}
	m := geo.STMetric{}
	coldReads := func() int64 { st := ts.Stats(); return st.ColdHits + st.ColdMisses }
	for u := phl.UserID(0); u < users; u++ {
		q := geo.STPoint{P: geo.Point{X: float64(u * 10), Y: 100}, T: 1000}
		before := coldReads()
		p, d, ok := ts.Closest(u, q, m)
		if got := coldReads() - before; got != 0 {
			t.Fatalf("user %d: present query read %d cold runs", u, got)
		}
		if wp, wd, wok := historyClosest(ts, u, q, m); p != wp || d != wd || ok != wok {
			t.Fatalf("user %d: Closest %+v %g %v, History gives %+v %g %v", u, p, d, ok, wp, wd, wok)
		}
	}
	before := coldReads()
	ts.Closest(0, geo.STPoint{T: 100}, m)
	if coldReads() == before {
		t.Fatal("a historical query read no cold run: the counters show nothing")
	}
}

// TestTieredClosestFallsBackOnOverflowAndUnderflow pins the guards
// where time differences stop being exact. A sample below the cut so
// far below the query that q.T - T wraps around int64 gets a small
// distance from History's Closest, whether it is cold or a late
// arrival (here behind two cold samples that stop the merged scan
// short of it); and a time scale so small that the time term's square
// underflows puts a cold sample at distance 0, tied with an in-memory
// one. In each case the in-memory tiers alone answer differently, so
// Closest must merge the cold tier to return History's answer.
func TestTieredClosestFallsBackOnOverflowAndUnderflow(t *testing.T) {
	const low, high = math.MinInt64 + 5, math.MaxInt64 - 5
	cases := []struct {
		name            string
		cold, hot, late []geo.STPoint
		q               geo.STPoint
		m               geo.STMetric
	}{
		{name: "cold sample wraps",
			cold: []geo.STPoint{{T: low}}, hot: []geo.STPoint{{P: geo.Point{X: 50}, T: high}},
			q: geo.STPoint{T: high}},
		{name: "late arrival wraps",
			cold: []geo.STPoint{{T: 0}, {T: 1}}, hot: []geo.STPoint{{P: geo.Point{X: 50}, T: high}},
			late: []geo.STPoint{{T: low}}, q: geo.STPoint{T: high}},
		{name: "time term underflows",
			cold: []geo.STPoint{{T: 0}}, hot: []geo.STPoint{{T: 1000}},
			q: geo.STPoint{T: 1000}, m: geo.STMetric{TimeScale: 1e-170}},
	}
	for _, c := range cases {
		ts := mustOpen(t, Options{Dir: "store", FS: NewMemFS(), HotWindow: 100, SnapshotEvery: 1 << 20})
		for _, p := range append(c.cold, c.hot...) {
			ts.Record(0, p)
		}
		if err := ts.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for _, p := range c.late {
			ts.Record(0, p)
		}
		if st := ts.Stats(); st.ColdSamples != len(c.cold) {
			t.Fatalf("%s: %d cold samples, want %d", c.name, st.ColdSamples, len(c.cold))
		}
		p, d, ok := ts.Closest(0, c.q, c.m)
		wp, wd, wok := historyClosest(ts, 0, c.q, c.m)
		if p != wp || d != wd || ok != wok {
			t.Fatalf("%s: Closest %+v %g %v, History gives %+v %g %v", c.name, p, d, ok, wp, wd, wok)
		}
		ts.mu.RLock()
		hp, _, _ := phl.HistoryFromPoints(hotPoints(ts.users[0])).Closest(c.q, c.m)
		ts.mu.RUnlock()
		if hp == wp {
			t.Fatalf("%s: the in-memory tiers also give History's answer %+v: the case tests nothing", c.name, wp)
		}
		if err := ts.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
