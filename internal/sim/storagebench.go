package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"histanon/internal/geo"
	"histanon/internal/phl"
	"histanon/internal/storage"
)

// StorageBenchRow is one measurement of the E-storage record: an
// ingestion mode (in-memory baseline, WAL off/batched/always), the
// crash-recovery row, or the cold-read latency row.
type StorageBenchRow struct {
	// Mode names the measurement ("memory", "wal=none", "wal=batch",
	// "wal=always", "recovery", "cold-read").
	Mode string `json:"mode"`
	// Records is the workload size this row was measured at (fsync-heavy
	// modes run a smaller slice of the 10⁶-update workload).
	Records int `json:"records"`
	// OpsPerSec / NsPerOp are per-record ingestion (or per-query read)
	// costs; zero for the recovery row.
	OpsPerSec float64 `json:"ops_per_sec,omitempty"`
	NsPerOp   float64 `json:"ns_per_op,omitempty"`
	// VsMemory is this mode's throughput relative to the in-memory
	// baseline — the price of durability.
	VsMemory float64 `json:"vs_memory,omitempty"`
	// Fsyncs actually issued during the row (group commit amortizes).
	Fsyncs int64 `json:"fsyncs,omitempty"`
	// RecoveryMs / Replayed describe the recovery row: wall time to
	// reopen the store and WAL records replayed past the snapshot chain.
	RecoveryMs float64 `json:"recovery_ms,omitempty"`
	Replayed   int     `json:"replayed,omitempty"`
	// HeapMB is the live heap after the row (recovery row only): the
	// bounded-memory evidence for a demoted 10⁶-update PHL.
	HeapMB float64 `json:"heap_mb,omitempty"`
	// ColdP99Us is the cold-read row's p99 whole-history read latency.
	ColdP99Us float64 `json:"cold_p99_us,omitempty"`
}

// StorageBenchReport is the machine-readable E-storage record; the
// top-level "storage_rows" key is what benchdiff recognizes.
type StorageBenchReport struct {
	GOMAXPROCS  int               `json:"gomaxprocs"`
	StorageRows []StorageBenchRow `json:"storage_rows"`
}

// WriteJSON emits the report for BENCH-style records.
func (r StorageBenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// storageBenchUsers sizes the synthetic population.
const storageBenchUsers = 1000

// storageBenchRecord derives record i of the deterministic workload.
func storageBenchRecord(rng *rand.Rand, t int64) (phl.UserID, geo.STPoint) {
	return phl.UserID(rng.Intn(storageBenchUsers)), geo.STPoint{
		P: geo.Point{X: rng.Float64() * 20e3, Y: rng.Float64() * 20e3},
		T: t,
	}
}

// ingestTiered drives n records into a fresh tiered store under dir
// with the given fsync policy, using workers concurrent writers (group
// commit only amortizes under concurrency, which is also the deployed
// shape). It returns the store still open — dirty, for the recovery
// row — plus the elapsed wall time.
func ingestTiered(dir string, policy storage.SyncPolicy, n, workers int, span int64) (*storage.TieredStore, time.Duration, error) {
	st, _, err := storage.Open(storage.Options{
		Dir:       dir,
		Sync:      policy,
		HotWindow: span / 20,
	})
	if err != nil {
		return nil, 0, err
	}
	var clock atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	per := n / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < per; i++ {
				t := clock.Add(1) * span / int64(n)
				u, p := storageBenchRecord(rng, t)
				st.Record(u, p)
			}
		}(w)
	}
	wg.Wait()
	return st, time.Since(start), nil
}

// RunStorageBench measures the durable tiered store against the
// in-memory baseline on a real filesystem under dir (callers pass a
// temp dir): ingestion throughput per fsync policy, crash-recovery
// time for the full n-update workload, live heap after recovery with
// most of the PHL demoted, and cold-read tail latency.
func RunStorageBench(dir string, n int) (StorageBenchReport, error) {
	rep := StorageBenchReport{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if n <= 0 {
		n = 1_000_000
	}
	span := int64(n) // ~1 time unit per record

	// Baseline: the in-memory store the seed repo shipped with.
	mem := phl.NewStore()
	rng := rand.New(rand.NewSource(1))
	start := time.Now()
	for i := 0; i < n; i++ {
		u, p := storageBenchRecord(rng, int64(i)*span/int64(n))
		mem.Record(u, p)
	}
	memElapsed := time.Since(start)
	memRate := float64(n) / memElapsed.Seconds()
	rep.StorageRows = append(rep.StorageRows, StorageBenchRow{
		Mode: "memory", Records: n,
		OpsPerSec: memRate,
		NsPerOp:   float64(memElapsed.Nanoseconds()) / float64(n),
		VsMemory:  1,
	})

	// Durable ingestion. Fsync-free modes run the full workload; the
	// two fsyncing modes run enough of it to measure steadily without
	// minutes of wall clock on slow disks.
	ingest := []struct {
		mode    string
		policy  storage.SyncPolicy
		n       int
		workers int
	}{
		{"wal=none", storage.SyncNone, n, 1},
		{"wal=batch", storage.SyncBatch, n / 10, 16},
		{"wal=always", storage.SyncAlways, n / 100, 16},
	}
	var dirty *storage.TieredStore // the wal=none store, kept dirty for recovery
	for _, c := range ingest {
		sub := filepath.Join(dir, c.mode)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return rep, err
		}
		st, elapsed, err := ingestTiered(sub, c.policy, c.n, c.workers, span)
		if err != nil {
			return rep, err
		}
		rate := float64(c.n) / elapsed.Seconds()
		rep.StorageRows = append(rep.StorageRows, StorageBenchRow{
			Mode: c.mode, Records: c.n,
			OpsPerSec: rate,
			NsPerOp:   float64(elapsed.Nanoseconds()) / float64(c.n),
			VsMemory:  rate / memRate,
			Fsyncs:    st.Stats().WALFsyncs,
		})
		if c.mode == "wal=none" {
			dirty = st // no Close: recovery below starts from a dirty dir
		} else if err := st.Close(); err != nil {
			return rep, err
		}
	}

	// Crash recovery: reopen the full-workload store without a clean
	// shutdown — snapshot chain plus WAL tail replay.
	_ = dirty // released unclosed on purpose; the OS reclaims its fds at exit
	start = time.Now()
	st, info, err := storage.Open(storage.Options{
		Dir:       filepath.Join(dir, "wal=none"),
		HotWindow: span / 20,
	})
	if err != nil {
		return rep, err
	}
	recoverMs := float64(time.Since(start).Microseconds()) / 1e3
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.StorageRows = append(rep.StorageRows, StorageBenchRow{
		Mode: "recovery", Records: st.NumSamples(),
		RecoveryMs: recoverMs,
		Replayed:   info.Replayed,
		HeapMB:     float64(ms.HeapAlloc) / (1 << 20),
	})

	// Cold reads: whole-history reads of random users on the recovered
	// store, where almost every sample lives in on-disk runs.
	const queries = 2000
	lat := make([]float64, 0, queries)
	qrng := rand.New(rand.NewSource(2))
	for i := 0; i < queries; i++ {
		u := phl.UserID(qrng.Intn(storageBenchUsers))
		q := time.Now()
		h := st.History(u)
		lat = append(lat, float64(time.Since(q).Nanoseconds())/1e3)
		if h.Len() == 0 {
			return rep, fmt.Errorf("storagebench: recovered store lost user %v", u)
		}
	}
	sort.Float64s(lat)
	var sum float64
	for _, v := range lat {
		sum += v
	}
	meanUs := sum / float64(len(lat))
	rep.StorageRows = append(rep.StorageRows, StorageBenchRow{
		Mode: "cold-read", Records: queries,
		OpsPerSec: 1e6 / meanUs,
		NsPerOp:   meanUs * 1e3,
		ColdP99Us: lat[len(lat)*99/100],
	})
	return rep, st.Close()
}
