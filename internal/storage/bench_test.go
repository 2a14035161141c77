package storage

import (
	"math/rand"
	"runtime"
	"testing"

	"histanon/internal/geo"
	"histanon/internal/phl"
)

// BenchmarkTieredRecovery times crash recovery of a 10⁶-update PHL
// (EXPERIMENTS.md §E-storage): Open on a real directory that a store
// left dirty — never closed, so no checkpoint covers its WAL tail —
// after 10⁶ location updates across 1000 users, one per second of
// sample time, with a hot window of 5% of the span and no fsync. It
// reports the WAL records replayed past the snapshot chain and the live
// heap with the recovered store open.
func BenchmarkTieredRecovery(b *testing.B) {
	const (
		n     = 1_000_000
		users = 1000
		span  = int64(n)
	)
	dir := b.TempDir()
	st, _, err := Open(Options{Dir: dir, Sync: SyncNone, HotWindow: span / 20})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for t := int64(1); t <= span; t++ {
		u := phl.UserID(rng.Intn(users))
		st.Record(u, geo.STPoint{
			P: geo.Point{X: rng.Float64() * 20e3, Y: rng.Float64() * 20e3},
			T: t,
		})
	}
	abandon(b, st)

	var replayed int
	var heap uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, info, err := Open(Options{Dir: dir, HotWindow: span / 20})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		replayed = info.Replayed
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap = ms.HeapAlloc
		abandon(b, rec)
		b.StartTimer()
	}
	b.ReportMetric(float64(replayed), "replayed/op")
	b.ReportMetric(float64(heap)/(1<<20), "heap-MB")
}

// abandon releases st's files as a crash would: without a checkpoint,
// so its directory stays exactly as dirty as st left it.
func abandon(b *testing.B, st *TieredStore) {
	if err := st.wal.Close(); err != nil {
		b.Fatal(err)
	}
	st.mu.Lock()
	st.closeFiles()
	st.mu.Unlock()
}
