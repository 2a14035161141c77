package stindex

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"histanon/internal/geo"
	"histanon/internal/phl"
)

// TestConcurrentInsertAndQuery race-stresses every index: writers
// insert while readers run all three query primitives. Run under
// `go test -race` this verifies the package's concurrency contract;
// after the writers join, a final pass verifies nothing was lost.
//
// Odd writers also introduce brand-new users (through InsertBatch where
// the index has it), so readers race the grid's id table. A new user's
// samples have T = newUserT(X), and readers check that every result
// names an inserted user and carries a sample's exact time.
func TestConcurrentInsertAndQuery(t *testing.T) {
	const (
		writers       = 4
		readers       = 4
		perWriter     = 800
		users         = 50
		newPerWriter  = 40 // brand-new users per odd writer
		queriesPerRdr = 200
	)
	newUser := func(w, i int) phl.UserID { return phl.UserID(1000*(w+1) + i%newPerWriter) }
	newUserT := func(x float64) int64 { return int64(x * 3.6) } // [0, 7200) over the extent
	inserted := func(u phl.UserID) bool {
		w, i := int(u)/1000-1, int(u)%1000
		return (u >= 0 && u < users) || (w%2 == 1 && w < writers && i < newPerWriter)
	}
	// known reports whether up names an inserted user at a time its
	// samples have: exactly newUserT(X) for a new user.
	known := func(up UserPoint) bool {
		if up.User < users {
			return inserted(up.User) && up.Point.T >= 0 && up.Point.T < 7200
		}
		return inserted(up.User) && up.Point.T == newUserT(up.Point.P.X)
	}
	for name, mk := range allIndexes() {
		t.Run(name, func(t *testing.T) {
			idx := mk()
			// A seeded base population so early readers have data.
			base := rand.New(rand.NewSource(1))
			fillRandom(idx, base, users, 500)

			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100 + w)))
					// Odd writers send runs of 32 through InsertBatch
					// where the index has it, reusing the run's slice,
					// and give every other sample to a new user.
					batcher, _ := idx.(interface{ InsertBatch([]phl.Sample) })
					var run []phl.Sample
					for i := 0; i < perWriter; i++ {
						u := phl.UserID(rng.Intn(users))
						p := pt(rng.Float64()*2000, rng.Float64()*2000, int64(rng.Intn(7200)))
						if w%2 == 1 && i%2 == 0 {
							u, p.T = newUser(w, i/2), newUserT(p.P.X)
						}
						if batcher == nil || w%2 == 0 {
							idx.Insert(u, p)
							continue
						}
						run = append(run, phl.Sample{User: u, Point: p})
						if len(run) == 32 || i == perWriter-1 {
							batcher.InsertBatch(run)
							run = run[:0]
						}
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					m := geo.STMetric{TimeScale: 1}
					for i := 0; i < queriesPerRdr; i++ {
						q := pt(rng.Float64()*2000, rng.Float64()*2000, int64(rng.Intn(7200)))
						box := geo.STBox{
							Area: rect(q.P.X-300, q.P.Y-300, q.P.X+300, q.P.Y+300),
							Time: iv(q.T-900, q.T+900),
						}
						switch i % 3 {
						case 0:
							got := idx.KNearestUsers(q, 1+rng.Intn(8), m, nil)
							for j, up := range got {
								if !known(up) {
									t.Errorf("KNearestUsers returned %v, not an inserted sample", up)
									return
								}
								if j > 0 && m.Dist(got[j-1].Point, q) > m.Dist(up.Point, q)+1e-9 {
									t.Errorf("KNearestUsers result not sorted at %d", j)
									return
								}
							}
						case 1:
							for _, u := range idx.UsersInBox(box) {
								if !inserted(u) {
									t.Errorf("UsersInBox returned %v, never inserted", u)
									return
								}
							}
						default:
							idx.CountUsersInBox(box)
						}
					}
				}(int64(200 + r))
			}
			wg.Wait()

			want := 500 + writers*perWriter
			if got := idx.Len(); got != want {
				t.Fatalf("Len=%d after concurrent inserts, want %d", got, want)
			}
			// Quiescent correctness: every user, old and new, must now be
			// found by the full-population query.
			wantUsers := users + writers/2*newPerWriter
			all := idx.KNearestUsers(pt(1000, 1000, 3600), wantUsers+5, geo.STMetric{TimeScale: 1}, nil)
			if len(all) != wantUsers {
				t.Fatalf("distinct users after join = %d, want %d", len(all), wantUsers)
			}
			for _, up := range all {
				if !known(up) {
					t.Fatalf("after join: %v is not an inserted sample", up)
				}
			}
		})
	}
}

// TestConcurrentQueriesShareScratch exercises the pooled KNN
// accumulators and seen-sets from many goroutines at once over a static
// index, cross-checking every result against a sequential baseline.
func TestConcurrentQueriesShareScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	idx := NewGrid(150, 450)
	ref := NewBrute()
	for i := 0; i < 4000; i++ {
		u := phl.UserID(rng.Intn(40))
		p := pt(rng.Float64()*2000, rng.Float64()*2000, int64(rng.Intn(7200)))
		idx.Insert(u, p)
		ref.Insert(u, p)
	}
	m := geo.STMetric{TimeScale: 0.5}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				q := pt(rng.Float64()*2000, rng.Float64()*2000, int64(rng.Intn(7200)))
				k := 1 + rng.Intn(10)
				got := idx.KNearestUsers(q, k, m, nil)
				want := ref.KNearestUsers(q, k, m, nil)
				if len(got) != len(want) {
					t.Errorf("len=%d want %d", len(got), len(want))
					return
				}
				for j := range got {
					if d1, d2 := m.Dist(got[j].Point, q), m.Dist(want[j].Point, q); d1-d2 > 1e-9 || d2-d1 > 1e-9 {
						t.Errorf("rank %d dist %g want %g", j, d1, d2)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// BenchmarkConcurrentGridMix measures grid throughput under a mixed
// insert/query load at GOMAXPROCS goroutines — the reader-safe sharding
// is the point, so ops here are whole query-or-insert operations.
func BenchmarkConcurrentGridMix(b *testing.B) {
	idx := NewGrid(500, 1800)
	seedRng := rand.New(rand.NewSource(17))
	for i := 0; i < 20000; i++ {
		idx.Insert(phl.UserID(seedRng.Intn(400)), pt(seedRng.Float64()*8000, seedRng.Float64()*8000, int64(seedRng.Intn(14*24*3600))))
	}
	m := geo.STMetric{TimeScale: 1}
	var seq atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seq.Add(1)))
		for pb.Next() {
			q := pt(rng.Float64()*8000, rng.Float64()*8000, int64(rng.Intn(14*24*3600)))
			if rng.Intn(4) == 0 {
				idx.Insert(phl.UserID(rng.Intn(400)), q)
			} else {
				idx.KNearestUsers(q, 5, m, nil)
			}
		}
	})
}
