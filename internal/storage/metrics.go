package storage

import (
	"histanon/internal/metrics"
	"histanon/internal/obs"
)

// RegisterMetrics exposes the store's counters as the
// histanon_storage_* Prometheus families. The trusted server's
// MetricsRegistry calls it when the configured store implements the
// ts.MetricsSource interface; servers on the default in-memory store
// register zero placeholders instead so the exposition surface is
// deployment-independent.
func (t *TieredStore) RegisterMetrics(r *metrics.Registry) {
	r.RegisterCounterFunc(obs.MetricStorageWALAppends,
		"Location updates appended to the write-ahead log.",
		nil, t.wal.appends.Load)
	r.RegisterCounterFunc(obs.MetricStorageWALFsyncs,
		"WAL fsyncs issued (group commits, rotations, closes).",
		nil, t.wal.fsyncs.Load)
	r.RegisterCounterFunc(obs.MetricStorageWALBytes,
		"Bytes written to the WAL, framing included.",
		nil, t.wal.bytes.Load)
	r.RegisterCounterFunc(obs.MetricStorageWALErrors,
		"WAL write or fsync errors (the first one is fail-stop).",
		nil, t.wal.errs.Load)
	r.RegisterGaugeFunc(obs.MetricStorageWALLag,
		"Appended records not yet covered by an fsync.",
		nil, func() float64 { return float64(t.wal.Lag()) })
	r.RegisterCounterFunc(obs.MetricStorageSnapshots,
		"Snapshot files written, by kind.",
		metrics.Labels{"kind": "full"}, t.snapsFull.Load)
	r.RegisterCounterFunc(obs.MetricStorageSnapshots,
		"Snapshot files written, by kind.",
		metrics.Labels{"kind": "delta"}, t.snapsDelta.Load)
	r.RegisterCounterFunc(obs.MetricStorageSnapshotErrors,
		"Snapshot writes or compactions that failed.",
		nil, t.snapErrs.Load)
	r.RegisterCounterFunc(obs.MetricStorageDemotions,
		"Maintenance cycles that moved samples to the cold tier.",
		nil, t.demotions.Load)
	r.RegisterCounterFunc(obs.MetricStorageDemotedSamples,
		"Samples demoted from memory to the cold tier.",
		nil, t.demoted.Load)
	r.RegisterCounterFunc(obs.MetricStorageColdReads,
		"Cold-tier run reads, by result.",
		metrics.Labels{"result": "hit"}, t.coldHits.Load)
	r.RegisterCounterFunc(obs.MetricStorageColdReads,
		"Cold-tier run reads, by result.",
		metrics.Labels{"result": "miss"}, t.coldMisses.Load)
	r.RegisterCounterFunc(obs.MetricStorageColdReads,
		"Cold-tier run reads, by result.",
		metrics.Labels{"result": "error"}, t.coldErrs.Load)
	r.RegisterCounterFunc(obs.MetricStorageColdKNN,
		"KNN queries by whether a time bound ruled out the cold tier.",
		metrics.Labels{"result": "skipped"}, t.coldKNNSkipped.Load)
	r.RegisterCounterFunc(obs.MetricStorageColdKNN,
		"KNN queries by whether a time bound ruled out the cold tier.",
		metrics.Labels{"result": "scanned"}, t.coldKNNScanned.Load)
	r.RegisterGaugeFunc(obs.MetricStorageHotSamples,
		"PHL samples resident in memory (warm + fresh tiers).",
		nil, func() float64 {
			t.mu.RLock()
			defer t.mu.RUnlock()
			return float64(t.hot)
		})
	r.RegisterGaugeFunc(obs.MetricStorageColdSamples,
		"PHL samples resident only on disk.",
		nil, func() float64 {
			t.mu.RLock()
			defer t.mu.RUnlock()
			return float64(t.cold)
		})
	r.RegisterGaugeFunc(obs.MetricStorageChainFiles,
		"Files in the live snapshot chain (compaction bounds this).",
		nil, func() float64 {
			t.mu.RLock()
			defer t.mu.RUnlock()
			return float64(len(t.chain))
		})
	r.RegisterGaugeFunc(obs.MetricStorageRecoverySeconds,
		"Wall seconds the last crash recovery took.",
		nil, func() float64 { return t.recovery.Duration.Seconds() })
	r.RegisterGaugeFunc(obs.MetricStorageRecoveryRecords,
		"WAL records replayed by the last recovery.",
		nil, func() float64 { return float64(t.recovery.Replayed) })
	r.RegisterGaugeFunc(obs.MetricStorageFailed,
		"1 while the WAL is failed (every request suppressed), else 0.",
		nil, func() float64 {
			if t.walFailed.Load() {
				return 1
			}
			return 0
		})
}
