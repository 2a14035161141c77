package ts

import (
	"sync/atomic"

	"histanon/internal/metrics"
	"histanon/internal/obs"
)

// WireStats counts binary wire-protocol activity on the batch ingest
// channel (internal/wire via httpapi's /v1/batch). The per-type frame
// counters are plain atomics rather than a CounterVec: the ingest path
// bumps them at millions of frames per second, and a vector lookup
// would rebuild its label key on every increment.
type WireStats struct {
	// Batches counts batch frames decoded successfully.
	Batches atomic.Int64
	// Bytes counts wire bytes ingested, well-formed or not.
	Bytes atomic.Int64
	// DecodeErrors counts batches (or frames within them) rejected as
	// malformed.
	DecodeErrors atomic.Int64
	// Locations counts location frames the server recorded and
	// ServiceCalls the service-call frames it decided, also in a batch
	// rejected afterwards; Other counts frames of a type the batch
	// endpoint does not accept.
	Locations    atomic.Int64
	ServiceCalls atomic.Int64
	Other        atomic.Int64
	// BatchFrames observes the inner-frame count per decoded batch —
	// the batching efficiency clients achieve.
	BatchFrames *metrics.Histogram
}

// NewWireStats returns zeroed wire counters. The frames-per-batch
// histogram spans 1..4096 in powers of four.
func NewWireStats() *WireStats {
	return &WireStats{BatchFrames: metrics.NewHistogram(metrics.ExponentialBuckets(1, 4, 7))}
}

// register adds the always-present wire families to the registry.
func (w *WireStats) register(r *metrics.Registry) {
	for _, ft := range []struct {
		label string
		src   *atomic.Int64
	}{
		{"location", &w.Locations},
		{"service_call", &w.ServiceCalls},
		{"other", &w.Other},
	} {
		src := ft.src
		r.RegisterCounterFunc(obs.MetricWireFrames,
			"Binary frames ingested via /v1/batch, by frame type: location frames recorded, service calls decided, other frames rejected.",
			metrics.Labels{"type": ft.label},
			func() int64 { return src.Load() })
	}
	r.RegisterCounterFunc(obs.MetricWireBatches,
		"Binary batch frames decoded successfully.",
		nil, w.Batches.Load)
	r.RegisterCounterFunc(obs.MetricWireBytes,
		"Binary wire bytes ingested via /v1/batch.",
		nil, w.Bytes.Load)
	r.RegisterCounterFunc(obs.MetricWireDecodeErrors,
		"Binary batches rejected as malformed.",
		nil, w.DecodeErrors.Load)
	r.RegisterHistogram(obs.MetricWireBatchFrames,
		"Inner frames per decoded batch.",
		nil, w.BatchFrames)
}
