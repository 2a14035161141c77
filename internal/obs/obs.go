// Package obs is the trusted server's observability layer: request
// tracing, privacy metrics, and the privacy audit log. It exists so an
// operator of a production TS can answer, from the outside, the three
// questions the paper's §6.1 loop raises continuously — where is
// request time going, why was a request generalized or suppressed, and
// how close is the population to anonymity failure.
//
// Three components, all wired through the Observer façade:
//
//   - Tracer (trace.go) — per-request spans recording wall time and
//     outcome for each pipeline stage (LBQID match, KNN lookup, box
//     construction, tolerance check, unlink decision, forward),
//     captured into a fixed-size ring buffer behind a sampling knob.
//     With sampling off the per-request cost is one atomic load.
//
//   - Privacy metrics — always-on counters and fixed-bucket histograms
//     (achieved-k distribution, generalized area/interval) built on
//     internal/metrics and exposed in Prometheus text format by
//     internal/httpapi at GET /metrics.
//
//   - AuditLog (audit.go) — a JSON-lines record of every
//     privacy-relevant decision: which LBQID matched, achieved k vs
//     requested k, generalization expansion factors, pseudonym
//     rotations. ReplayAchievedK rebuilds the live achieved-k histogram
//     from a log, so EXPERIMENTS-style tables can be recomputed from a
//     production deployment's audit trail.
//
// OBSERVABILITY.md at the repository root documents every metric name,
// span stage and audit field, plus the operator runbook.
package obs

import (
	"sync/atomic"

	"histanon/internal/metrics"
)

// Metric family names registered by the trusted server. Keeping them as
// constants gives the documentation checker a single source of truth.
const (
	MetricEvents       = "histanon_ts_events_total"
	MetricStageSeconds = "histanon_stage_duration_seconds"
	MetricAchievedK    = "histanon_achieved_k"
	MetricGenArea      = "histanon_generalization_area_m2"
	MetricGenInterval  = "histanon_generalization_interval_seconds"
	MetricRotations    = "histanon_pseudonym_rotations_total"
	MetricGenFailures  = "histanon_generalization_failures_total"
	MetricPHLUsers     = "histanon_phl_users"
	MetricPHLSamples   = "histanon_phl_samples"
	MetricSpansSampled = "histanon_trace_spans_sampled_total"
	MetricTailKept     = "histanon_trace_tail_kept_total"
	MetricAuditEvents  = "histanon_audit_events_total"
	MetricAuditErrors  = "histanon_audit_errors_total"

	// Resilience-layer families (internal/resilience): the async SP
	// delivery pipeline, its circuit breakers and HTTP admission
	// control.
	MetricResilienceEvents      = "histanon_resilience_events_total"
	MetricResilienceQueueDepth  = "histanon_resilience_queue_depth"
	MetricResilienceBreakerOpen = "histanon_resilience_breaker_open"
	MetricHTTPShed              = "histanon_http_shed_total"
	MetricHTTPInFlight          = "histanon_http_inflight"

	// Binary wire-protocol families (internal/wire via internal/httpapi):
	// the /v1/batch ingest channel.
	MetricWireFrames       = "histanon_wire_frames_total"
	MetricWireBatches      = "histanon_wire_batches_total"
	MetricWireBytes        = "histanon_wire_bytes_total"
	MetricWireDecodeErrors = "histanon_wire_decode_errors_total"
	MetricWireBatchFrames  = "histanon_wire_batch_frames"

	// Durable tiered-storage families (internal/storage TieredStore):
	// WAL durability, snapshot chain maintenance, hot/cold demotion and
	// the cold read path.
	MetricStorageWALAppends      = "histanon_storage_wal_appends_total"
	MetricStorageWALFsyncs       = "histanon_storage_wal_fsyncs_total"
	MetricStorageWALBytes        = "histanon_storage_wal_bytes_total"
	MetricStorageWALErrors       = "histanon_storage_wal_errors_total"
	MetricStorageWALLag          = "histanon_storage_wal_lag_records"
	MetricStorageSnapshots       = "histanon_storage_snapshots_total"
	MetricStorageSnapshotErrors  = "histanon_storage_snapshot_errors_total"
	MetricStorageDemotions       = "histanon_storage_demotions_total"
	MetricStorageDemotedSamples  = "histanon_storage_demoted_samples_total"
	MetricStorageColdReads       = "histanon_storage_cold_reads_total"
	MetricStorageColdKNN         = "histanon_storage_cold_knn_total"
	MetricStorageHotSamples      = "histanon_storage_hot_samples"
	MetricStorageColdSamples     = "histanon_storage_cold_samples"
	MetricStorageChainFiles      = "histanon_storage_snapshot_chain_files"
	MetricStorageRecoverySeconds = "histanon_storage_recovery_seconds"
	MetricStorageRecoveryRecords = "histanon_storage_recovery_records"
	MetricStorageFailed          = "histanon_storage_failed"

	// Privacy-SLO families (internal/slo): windowed privacy aggregates,
	// burn-rate alert states and the re-identification canary.
	MetricSLODecisions         = "histanon_slo_decisions_total"
	MetricSLOBelowK            = "histanon_slo_below_k_total"
	MetricSLODroppedLate       = "histanon_slo_dropped_late_total"
	MetricSLOBelowKRatio       = "histanon_slo_below_k_ratio"
	MetricSLOSuppressionRatio  = "histanon_slo_suppression_ratio"
	MetricSLODegradedRatio     = "histanon_slo_degraded_ratio"
	MetricSLOAchievedKQuantile = "histanon_slo_achieved_k_quantile"
	MetricSLOBurnRate          = "histanon_slo_burn_rate"
	MetricSLOState             = "histanon_slo_state"
	MetricSLOTransitions       = "histanon_slo_transitions_total"
	MetricSLOCanaryLinkProb    = "histanon_slo_canary_link_probability"
	MetricSLOCanaryReident     = "histanon_slo_canary_reidentified_ratio"
	MetricSLOCanaryAnonSet     = "histanon_slo_canary_anon_set_mean"
	MetricSLOCanaryProbes      = "histanon_slo_canary_probes_total"
	MetricSLOCanarySkipped     = "histanon_slo_canary_skipped_total"
	MetricSLOCanaryAge         = "histanon_slo_canary_age_seconds"
)

// MetricNames lists every metric family the server registers, for the
// documentation-coverage check.
func MetricNames() []string {
	return []string{
		MetricEvents, MetricStageSeconds, MetricAchievedK, MetricGenArea,
		MetricGenInterval, MetricRotations, MetricGenFailures, MetricPHLUsers,
		MetricPHLSamples, MetricSpansSampled, MetricTailKept,
		MetricAuditEvents, MetricAuditErrors,
		MetricResilienceEvents, MetricResilienceQueueDepth,
		MetricResilienceBreakerOpen, MetricHTTPShed, MetricHTTPInFlight,
		MetricWireFrames, MetricWireBatches, MetricWireBytes,
		MetricWireDecodeErrors, MetricWireBatchFrames,
		MetricStorageWALAppends, MetricStorageWALFsyncs, MetricStorageWALBytes,
		MetricStorageWALErrors, MetricStorageWALLag,
		MetricStorageSnapshots, MetricStorageSnapshotErrors,
		MetricStorageDemotions, MetricStorageDemotedSamples,
		MetricStorageColdReads, MetricStorageColdKNN,
		MetricStorageHotSamples, MetricStorageColdSamples,
		MetricStorageChainFiles, MetricStorageRecoverySeconds,
		MetricStorageRecoveryRecords, MetricStorageFailed,
		MetricSLODecisions, MetricSLOBelowK, MetricSLODroppedLate,
		MetricSLOBelowKRatio, MetricSLOSuppressionRatio,
		MetricSLODegradedRatio, MetricSLOAchievedKQuantile,
		MetricSLOBurnRate, MetricSLOState, MetricSLOTransitions,
		MetricSLOCanaryLinkProb, MetricSLOCanaryReident,
		MetricSLOCanaryAnonSet, MetricSLOCanaryProbes,
		MetricSLOCanarySkipped, MetricSLOCanaryAge,
	}
}

// Help returns the HELP text of a family whose series depend on what is
// wired: the resilience and storage families, which a resilience
// outbox or a durable store registers live and any other server
// registers as zero placeholders. Both registrations take the text from
// here, so a family's HELP line is the same whatever is wired.
func Help(name string) string { return wiredHelp[name] }

var wiredHelp = map[string]string{
	MetricResilienceEvents:       "Asynchronous SP delivery pipeline events by type.",
	MetricResilienceQueueDepth:   "Requests currently queued for SP delivery.",
	MetricResilienceBreakerOpen:  "Per-service circuit breakers currently open.",
	MetricStorageWALAppends:      "Location updates appended to the write-ahead log.",
	MetricStorageWALFsyncs:       "WAL fsyncs issued (group commits, rotations, closes).",
	MetricStorageWALBytes:        "Bytes written to the WAL, framing included.",
	MetricStorageWALErrors:       "WAL write or fsync errors (the first one is fail-stop).",
	MetricStorageWALLag:          "Appended records not yet covered by an fsync.",
	MetricStorageSnapshots:       "Snapshot files written, by kind.",
	MetricStorageSnapshotErrors:  "Snapshot writes or compactions that failed.",
	MetricStorageDemotions:       "Maintenance cycles that moved samples to the cold tier.",
	MetricStorageDemotedSamples:  "Samples demoted from memory to the cold tier.",
	MetricStorageColdReads:       "Cold-tier run reads, by result.",
	MetricStorageColdKNN:         "KNN queries by whether a time bound ruled out the cold tier.",
	MetricStorageHotSamples:      "PHL samples resident in memory (warm + fresh tiers).",
	MetricStorageColdSamples:     "PHL samples resident only on disk.",
	MetricStorageChainFiles:      "Files in the live snapshot chain (compaction bounds this).",
	MetricStorageRecoverySeconds: "Wall seconds the last crash recovery took.",
	MetricStorageRecoveryRecords: "WAL records replayed by the last recovery.",
	MetricStorageFailed:          "1 while the WAL is failed (every request suppressed), else 0.",
}

// AchievedKBuckets returns the bucket bounds of the achieved-k
// histogram: one bucket per k in [1, 20]. Shared by the live Observer
// and ReplayAchievedK so the two always agree.
func AchievedKBuckets() []float64 { return metrics.LinearBuckets(1, 1, 20) }

// StageSecondsBuckets returns the latency buckets (seconds) of the
// per-stage histograms: 1 µs … ≈4.2 s, ×4 per bucket.
func StageSecondsBuckets() []float64 { return metrics.ExponentialBuckets(1e-6, 4, 12) }

// GenAreaBuckets returns the buckets (m²) of the generalized-area
// histogram: 1 m² … 10¹¹ m², ×10 per bucket.
func GenAreaBuckets() []float64 { return metrics.ExponentialBuckets(1, 10, 12) }

// GenIntervalBuckets returns the buckets (seconds) of the
// generalized-interval histogram: 1 s … ≈4.2 Ms, ×4 per bucket.
func GenIntervalBuckets() []float64 { return metrics.ExponentialBuckets(1, 4, 12) }

// Observer bundles the tracer, the privacy histograms and the audit
// sink into the single handle the trusted server threads through its
// request path. The zero value is not usable — construct with New.
type Observer struct {
	// Tracer samples request spans; never nil.
	Tracer *Tracer
	// StageSeconds holds one latency histogram per pipeline stage,
	// indexed by Stage, fed only for sampled requests.
	StageSeconds [NumStages]*metrics.Histogram
	// AchievedK is the always-on distribution of achieved anonymity
	// (witnesses+1) over generalized requests.
	AchievedK *metrics.Histogram
	// GenAreaM2 and GenIntervalS are the always-on distributions of the
	// forwarded generalized context's spatial and temporal extent.
	GenAreaM2    *metrics.Histogram
	GenIntervalS *metrics.Histogram

	audit     atomic.Pointer[AuditLog]
	exemplars atomic.Bool
}

// New returns an observer with sampling off and no audit sink: the
// configuration every server starts with, costing nothing until an
// operator turns a knob.
func New() *Observer {
	o := &Observer{
		Tracer:       NewTracer(DefaultRingSize),
		AchievedK:    metrics.NewHistogram(AchievedKBuckets()),
		GenAreaM2:    metrics.NewHistogram(GenAreaBuckets()),
		GenIntervalS: metrics.NewHistogram(GenIntervalBuckets()),
	}
	for i := range o.StageSeconds {
		o.StageSeconds[i] = metrics.NewHistogram(StageSecondsBuckets())
	}
	return o
}

// SetAudit installs (or, with nil, removes) the audit sink. Safe to
// call while requests are in flight.
func (o *Observer) SetAudit(a *AuditLog) { o.audit.Store(a) }

// AuditSink returns the current audit sink; nil when auditing is off
// (and a nil *AuditLog is itself a valid no-op sink).
func (o *Observer) AuditSink() *AuditLog { return o.audit.Load() }

// Audit logs one event if an audit sink is installed.
func (o *Observer) Audit(e Event) { o.audit.Load().Log(e) }

// SetExemplars enables (or disables) exemplar capture: retained spans
// leave their trace id on the latency histogram buckets they land in,
// so a /metrics scrape can point back to /v1/spans?trace=. Safe to
// toggle while requests are in flight.
func (o *Observer) SetExemplars(on bool) { o.exemplars.Store(on) }

// ExemplarsEnabled reports whether exemplar capture is on.
func (o *Observer) ExemplarsEnabled() bool { return o.exemplars.Load() }

// RecordSpan finishes a collected span, runs the tail keep decision
// (head marks an unconditional head-sampler retention) and feeds the
// per-stage latency histograms. Retained spans additionally stamp their
// trace id on the histogram buckets when exemplar capture is on. Spans
// minted by NewSpan are recycled to the pool before returning — the
// caller hands over ownership and must not touch the span afterwards.
// It reports whether the span was retained in the ring.
func (o *Observer) RecordSpan(sp *Span, head bool) bool {
	kept := o.Tracer.RecordTail(sp, head)
	// RecordTail materialized the trace id if the span was kept and
	// carries an identity, so this read sees the rendered string.
	withExemplar := kept && sp.TraceID != "" && o.exemplars.Load()
	for i, ns := range sp.StageNs {
		if ns > 0 {
			v := float64(ns) / 1e9
			if withExemplar {
				o.StageSeconds[i].ObserveExemplar(v, sp.TraceID)
			} else {
				o.StageSeconds[i].Observe(v)
			}
		}
	}
	sp.Release()
	return kept
}
