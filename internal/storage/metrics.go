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
		obs.Help(obs.MetricStorageWALAppends),
		nil, t.wal.appends.Load)
	r.RegisterCounterFunc(obs.MetricStorageWALFsyncs,
		obs.Help(obs.MetricStorageWALFsyncs),
		nil, t.wal.fsyncs.Load)
	r.RegisterCounterFunc(obs.MetricStorageWALBytes,
		obs.Help(obs.MetricStorageWALBytes),
		nil, t.wal.bytes.Load)
	r.RegisterCounterFunc(obs.MetricStorageWALErrors,
		obs.Help(obs.MetricStorageWALErrors),
		nil, t.wal.errs.Load)
	r.RegisterGaugeFunc(obs.MetricStorageWALLag,
		obs.Help(obs.MetricStorageWALLag),
		nil, func() float64 { return float64(t.wal.Lag()) })
	r.RegisterCounterFunc(obs.MetricStorageSnapshots,
		obs.Help(obs.MetricStorageSnapshots),
		metrics.Labels{"kind": "full"}, t.snapsFull.Load)
	r.RegisterCounterFunc(obs.MetricStorageSnapshots,
		obs.Help(obs.MetricStorageSnapshots),
		metrics.Labels{"kind": "delta"}, t.snapsDelta.Load)
	r.RegisterCounterFunc(obs.MetricStorageSnapshotErrors,
		obs.Help(obs.MetricStorageSnapshotErrors),
		nil, t.snapErrs.Load)
	r.RegisterCounterFunc(obs.MetricStorageDemotions,
		obs.Help(obs.MetricStorageDemotions),
		nil, t.demotions.Load)
	r.RegisterCounterFunc(obs.MetricStorageDemotedSamples,
		obs.Help(obs.MetricStorageDemotedSamples),
		nil, t.demoted.Load)
	r.RegisterCounterFunc(obs.MetricStorageColdReads,
		obs.Help(obs.MetricStorageColdReads),
		metrics.Labels{"result": "hit"}, t.coldHits.Load)
	r.RegisterCounterFunc(obs.MetricStorageColdReads,
		obs.Help(obs.MetricStorageColdReads),
		metrics.Labels{"result": "miss"}, t.coldMisses.Load)
	r.RegisterCounterFunc(obs.MetricStorageColdReads,
		obs.Help(obs.MetricStorageColdReads),
		metrics.Labels{"result": "error"}, t.coldErrs.Load)
	r.RegisterCounterFunc(obs.MetricStorageColdKNN,
		obs.Help(obs.MetricStorageColdKNN),
		metrics.Labels{"result": "skipped"}, t.coldKNNSkipped.Load)
	r.RegisterCounterFunc(obs.MetricStorageColdKNN,
		obs.Help(obs.MetricStorageColdKNN),
		metrics.Labels{"result": "scanned"}, t.coldKNNScanned.Load)
	r.RegisterGaugeFunc(obs.MetricStorageHotSamples,
		obs.Help(obs.MetricStorageHotSamples),
		nil, func() float64 {
			t.mu.RLock()
			defer t.mu.RUnlock()
			return float64(t.hot)
		})
	r.RegisterGaugeFunc(obs.MetricStorageColdSamples,
		obs.Help(obs.MetricStorageColdSamples),
		nil, func() float64 {
			t.mu.RLock()
			defer t.mu.RUnlock()
			return float64(t.cold)
		})
	r.RegisterGaugeFunc(obs.MetricStorageChainFiles,
		obs.Help(obs.MetricStorageChainFiles),
		nil, func() float64 {
			t.mu.RLock()
			defer t.mu.RUnlock()
			return float64(len(t.chain))
		})
	r.RegisterGaugeFunc(obs.MetricStorageRecoverySeconds,
		obs.Help(obs.MetricStorageRecoverySeconds),
		nil, func() float64 { return t.recovery.Duration.Seconds() })
	r.RegisterGaugeFunc(obs.MetricStorageRecoveryRecords,
		obs.Help(obs.MetricStorageRecoveryRecords),
		nil, func() float64 { return float64(t.recovery.Replayed) })
	r.RegisterGaugeFunc(obs.MetricStorageFailed,
		obs.Help(obs.MetricStorageFailed),
		nil, func() float64 {
			if t.walFailed.Load() {
				return 1
			}
			return 0
		})
}
