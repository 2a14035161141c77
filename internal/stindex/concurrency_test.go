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
func TestConcurrentInsertAndQuery(t *testing.T) {
	const (
		writers       = 4
		readers       = 4
		perWriter     = 800
		users         = 50
		queriesPerRdr = 200
	)
	for name, mk := range allIndexes() {
		t.Run(name, func(t *testing.T) {
			idx := mk()
			// A seeded base population so early readers have data.
			base := rand.New(rand.NewSource(1))
			fillRandom(idx, base, users, 500)

			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					// Odd writers send runs of 32 through InsertBatch
					// where the index has it, reusing the run's slice.
					batcher, _ := idx.(interface{ InsertBatch([]phl.Sample) })
					var run []phl.Sample
					for i := 0; i < perWriter; i++ {
						u := phl.UserID(rng.Intn(users))
						p := pt(rng.Float64()*2000, rng.Float64()*2000, int64(rng.Intn(7200)))
						if batcher == nil || seed%2 == 0 {
							idx.Insert(u, p)
							continue
						}
						run = append(run, phl.Sample{User: u, Point: p})
						if len(run) == 32 || i == perWriter-1 {
							batcher.InsertBatch(run)
							run = run[:0]
						}
					}
				}(int64(100 + w))
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					m := geo.STMetric{TimeScale: 1}
					for i := 0; i < queriesPerRdr; i++ {
						q := pt(rng.Float64()*2000, rng.Float64()*2000, int64(rng.Intn(7200)))
						switch i % 3 {
						case 0:
							got := idx.KNearestUsers(q, 1+rng.Intn(8), m, nil)
							for j := 1; j < len(got); j++ {
								if m.Dist(got[j-1].Point, q) > m.Dist(got[j].Point, q)+1e-9 {
									t.Errorf("KNearestUsers result not sorted at %d", j)
									return
								}
							}
						case 1:
							box := geo.STBox{
								Area: rect(q.P.X-300, q.P.Y-300, q.P.X+300, q.P.Y+300),
								Time: iv(q.T-900, q.T+900),
							}
							idx.UsersInBox(box)
						default:
							box := geo.STBox{
								Area: rect(q.P.X-300, q.P.Y-300, q.P.X+300, q.P.Y+300),
								Time: iv(q.T-900, q.T+900),
							}
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
			// Quiescent correctness: the index must now agree with a brute
			// replay of the same inserts on the full-population query.
			all := idx.KNearestUsers(pt(1000, 1000, 3600), users+5, geo.STMetric{TimeScale: 1}, nil)
			if len(all) != users {
				t.Fatalf("distinct users after join = %d, want %d", len(all), users)
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
