// Request tracing: per-request spans that record where the TS pipeline
// spent its time and what it decided, sampled into a fixed-size ring
// buffer. The unsampled fast path is a single atomic load, so tracing
// can stay compiled into the hot path at zero practical cost.

package obs

import (
	"encoding/hex"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"histanon/internal/metrics"
)

// Stage identifies one instrumented phase of the TS request pipeline,
// in execution order.
type Stage int

// The pipeline stages. StageMatch is LBQID monitoring; StageKNN,
// StageBox and StageTolerance split Algorithm 1 into its index query,
// box construction and tolerance-check parts; StageUnlink covers the
// §6.1 step-2 mix-zone/rotation decision; StageForward is delivery to
// the service provider.
const (
	StageMatch Stage = iota
	StageKNN
	StageBox
	StageTolerance
	StageUnlink
	StageForward
	NumStages // not a stage: the count, for arrays indexed by Stage
)

// String returns the snake_case stage name used as the "stage" label of
// the latency histograms.
func (s Stage) String() string {
	switch s {
	case StageMatch:
		return "lbqid_match"
	case StageKNN:
		return "knn_lookup"
	case StageBox:
		return "box_construct"
	case StageTolerance:
		return "tolerance_check"
	case StageUnlink:
		return "unlink"
	case StageForward:
		return "forward"
	default:
		return "unknown"
	}
}

// Stages lists every real stage (excluding NumStages) in order.
func Stages() []Stage {
	out := make([]Stage, NumStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Span outcomes. OutcomeDegraded is the fail-closed resilience outcome:
// the pipeline decided to forward but the delivery layer refused
// admission (queue full or breaker open), so the request was withheld.
// OutcomeDropped marks an asynchronous delivery failure (KindDelivery
// audit records only): the request was admitted but never reached the
// service provider.
const (
	OutcomeForwarded  = "forwarded"
	OutcomeSuppressed = "suppressed"
	OutcomeDegraded   = "degraded"
	OutcomeDelivered  = "delivered"
	OutcomeDropped    = "dropped"
)

// Span kinds: the synchronous TS pipeline span, and the asynchronous
// delivery span the resilience layer records under it.
const (
	SpanKindRequest  = "request"
	SpanKindDelivery = "delivery"
)

// Tail-sampling keep reasons: the "reason" label of
// histanon_trace_tail_kept_total and the span's keepReason field.
// KeepHead marks spans the every-Nth head sampler retained
// unconditionally; all others are post-completion tail decisions that
// rescue interesting spans the head sampler missed.
const (
	KeepHead     = "head"
	KeepDegraded = "degraded"
	KeepDenied   = "denied"
	KeepSlow     = "slow"
	KeepBreaker  = "breaker"
	KeepDropped  = "dropped"
)

// SpanEvent is a named point-in-time annotation inside a span —
// breaker openings, shed decisions, delivery retries.
type SpanEvent struct {
	// Name identifies the event (e.g. "shed_queue_full", "retry",
	// "breaker_open").
	Name string `json:"name"`
	// AtNs is the event's offset from the span start, in nanoseconds.
	AtNs int64 `json:"atNs"`
}

// Span is one collected request's timing and outcome record.
type Span struct {
	// TraceID, SpanID and ParentSpanID are the span's W3C trace-context
	// identifiers (lowercase hex; empty on spans collected before
	// tracing carried identities). Spans sharing a TraceID form one
	// request's tree: the request span is the root (or a child of an
	// upstream caller), delivery spans hang off it.
	TraceID      string `json:"traceId,omitempty"`
	SpanID       string `json:"spanId,omitempty"`
	ParentSpanID string `json:"parentSpanId,omitempty"`
	// Kind is SpanKindRequest or SpanKindDelivery ("" reads as request).
	Kind string `json:"kind,omitempty"`
	// Start is the wall-clock start of the request, in Unix nanoseconds.
	Start int64 `json:"start"`
	// MsgID is the TS↔SP message id assigned to the request (0 when the
	// request was suppressed before an id was assigned).
	MsgID int64 `json:"msgid"`
	// User is the issuing user.
	User int64 `json:"user"`
	// Service names the requested service.
	Service string `json:"service"`
	// StageNs holds per-stage wall time in nanoseconds, indexed by Stage.
	// Stages the request never reached stay zero.
	StageNs [NumStages]int64 `json:"stageNs"`
	// TotalNs is the whole-request wall time in nanoseconds.
	TotalNs int64 `json:"totalNs"`
	// QueueNs is the enqueue→dequeue wait of a delivery span.
	QueueNs int64 `json:"queueNs,omitempty"`
	// AttemptNs holds the per-attempt wall time of a delivery span, one
	// entry per delivery attempt actually made.
	AttemptNs []int64 `json:"attemptNs,omitempty"`
	// Outcome is OutcomeForwarded, OutcomeSuppressed or OutcomeDegraded
	// for request spans; OutcomeDelivered or OutcomeDropped for delivery
	// spans.
	Outcome string `json:"outcome"`
	// Reason qualifies a degraded or dropped outcome (the audit reason
	// label, e.g. "queue_full", "deadline_exceeded").
	Reason string `json:"reason,omitempty"`
	// KeepReason records why the tail sampler retained the span.
	KeepReason string `json:"keepReason,omitempty"`
	// Events are the span's point-in-time annotations.
	Events []SpanEvent `json:"events,omitempty"`
	// Generalized, Unlinked and AtRisk mirror the ts.Decision flags.
	Generalized bool `json:"generalized"`
	Unlinked    bool `json:"unlinked"`
	AtRisk      bool `json:"atRisk"`

	beganNs int64 // Begin time as an offset from processBase; 0 = unbegun
	markNs  int64 // lap point as an offset from beganNs

	// tc and parentID hold the span's trace identity in binary form;
	// the hex string fields above are rendered from them only when the
	// span is actually retained (MaterializeIDs), so the collect-and-
	// discard hot path never pays for hex encoding.
	tc       TraceContext
	parentID [8]byte

	// eventBuf and attemptBuf are the inline backing arrays Events and
	// AttemptNs grow into on pooled spans: the common span (a handful of
	// events, a handful of delivery attempts) never touches the heap.
	eventBuf   [spanInlineEvents]SpanEvent
	attemptBuf [spanInlineAttempts]int64

	// pooled marks spans owned by the span pool (NewSpan); Release
	// recycles only those, so stack- or test-constructed spans are
	// unaffected.
	pooled bool
}

// Inline capacities of a pooled span's event and delivery-attempt
// buffers. Spans exceeding them spill to the heap (rare: a request span
// records at most one shed event, a delivery span one attempt lap per
// retry).
const (
	spanInlineEvents   = 8
	spanInlineAttempts = 8
)

// spanPool recycles Span objects across requests. A pooled span's
// lifecycle is collect → keep decision → (snapshot if kept) → Release;
// the ring only ever stores snapshots, never pooled memory.
var spanPool = sync.Pool{New: func() any { return new(Span) }}

// processBase is the monotonic timing base every span measures against:
// one wall-clock read at startup, after which Begin/Mark/Sync/finish
// are each a single monotonic-clock read (time.Since), roughly half the
// cost of a time.Now. Span Start values are processBaseUnixNano plus
// the monotonic offset, so they stay mutually consistent even if the
// wall clock steps while the process runs.
var (
	processBase         = time.Now()
	processBaseUnixNano = processBase.UnixNano()
)

// monoNow returns nanoseconds since processBase (always > 0, since
// processBase is captured at package init).
func monoNow() int64 { return int64(time.Since(processBase)) }

// NewSpan returns a reset pool-owned span whose Events and AttemptNs
// slices are anchored in its inline buffers. Callers hand the span to
// Observer.RecordSpan, which recycles it after the keep decision; a
// span not recorded must be Released explicitly.
//
// The reset clears every field EXCEPT the inline buffers: their stale
// contents are unreachable, because Events and AttemptNs are re-anchored
// at length zero and snapshot copies only the written prefix. A field
// added to Span must be reset here — TestNewSpanResetsEveryField
// enforces that by reflection.
func NewSpan() *Span {
	sp := spanPool.Get().(*Span)
	sp.TraceID, sp.SpanID, sp.ParentSpanID = "", "", ""
	sp.Kind, sp.Service = "", ""
	sp.Start, sp.MsgID, sp.User = 0, 0, 0
	sp.StageNs = [NumStages]int64{}
	sp.TotalNs, sp.QueueNs = 0, 0
	sp.Outcome, sp.Reason, sp.KeepReason = "", "", ""
	sp.Generalized, sp.Unlinked, sp.AtRisk = false, false, false
	sp.beganNs, sp.markNs = 0, 0
	sp.tc = TraceContext{}
	sp.parentID = [8]byte{}
	sp.pooled = true
	sp.Events = sp.eventBuf[:0]
	sp.AttemptNs = sp.attemptBuf[:0]
	return sp
}

// Release returns a pooled span to the pool. It is a no-op for nil and
// for spans not minted by NewSpan, so callers can release
// unconditionally. The caller must not touch the span afterwards.
func (sp *Span) Release() {
	if sp == nil || !sp.pooled {
		return
	}
	spanPool.Put(sp)
}

// SetIdentity stores the span's own trace context and its parent's span
// id in binary form. The hex string fields stay empty until
// MaterializeIDs renders them — at keep-decision time, or never, for
// the discarded majority.
func (sp *Span) SetIdentity(tc, parent TraceContext) {
	sp.tc = tc
	sp.parentID = parent.SpanID
}

// MaterializeIDs renders a binary identity (SetIdentity) into the
// TraceID/SpanID/ParentSpanID string fields. Spans whose strings were
// set directly, or that carry no identity at all, are left alone.
// RecordTail calls it for every retained span; only custom SpanRecorder
// implementations that bypass the tracer need to call it themselves.
func (sp *Span) MaterializeIDs() {
	if !sp.tc.Valid() || sp.TraceID != "" {
		return
	}
	sp.TraceID = sp.tc.TraceIDString()
	sp.SpanID = sp.tc.SpanIDString()
	if sp.parentID != ([8]byte{}) {
		sp.ParentSpanID = hex.EncodeToString(sp.parentID[:])
	}
}

// snapshot returns a self-contained copy safe to outlive the (possibly
// pooled) receiver: the Events and AttemptNs slices are re-cloned onto
// the heap so the copy never aliases the receiver's inline buffers.
func (sp *Span) snapshot() Span {
	snap := *sp
	snap.pooled = false
	snap.Events = nil
	snap.AttemptNs = nil
	if len(sp.Events) > 0 {
		snap.Events = append([]SpanEvent(nil), sp.Events...)
	}
	if len(sp.AttemptNs) > 0 {
		snap.AttemptNs = append([]int64(nil), sp.AttemptNs...)
	}
	return snap
}

// Begin stamps the span's start; subsequent Mark calls attribute
// elapsed time to stages. Begin and every later lap point (Mark, Sync,
// Event, finish) cost one monotonic-clock read each against the shared
// processBase — no per-span wall-clock read at all.
func (sp *Span) Begin() {
	sp.beganNs = monoNow()
	sp.Start = processBaseUnixNano + sp.beganNs
	sp.markNs = 0
}

// Mark attributes the time since the previous Mark (or Begin) to the
// given stage. A no-op on a nil span and before Begin, so code that
// laps a request's stages (the TS, Algorithm 1 in package generalize)
// calls it unconditionally on a span that is nil unless timed.
func (sp *Span) Mark(s Stage) {
	if sp == nil || sp.beganNs == 0 {
		return
	}
	now := monoNow() - sp.beganNs
	sp.StageNs[s] += now - sp.markNs
	sp.markNs = now
}

// Sync re-arms the lap timer without attributing the elapsed time to
// any stage — for skipping bookkeeping code between stages. A no-op on
// a nil span and before Begin.
func (sp *Span) Sync() {
	if sp == nil || sp.beganNs == 0 {
		return
	}
	sp.markNs = monoNow() - sp.beganNs
}

// Event appends a named annotation at the span's current elapsed time.
func (sp *Span) Event(name string) {
	var at int64
	if sp.beganNs != 0 {
		at = monoNow() - sp.beganNs
	}
	sp.Events = append(sp.Events, SpanEvent{Name: name, AtNs: at})
}

// AddEvent appends a named annotation at an externally measured offset
// (delivery spans are timed on the resilience layer's clock, not this
// process's monotonic one).
func (sp *Span) AddEvent(name string, atNs int64) {
	sp.Events = append(sp.Events, SpanEvent{Name: name, AtNs: atNs})
}

// finish stamps the total duration.
func (sp *Span) finish() {
	if sp.beganNs != 0 {
		sp.TotalNs = monoNow() - sp.beganNs
	}
}

// Tracer decides which requests get a span and keeps the retained
// spans in a ring buffer. Sampling is two-tier:
//
//   - The head sampler (SetSampleRate) keeps every Nth request
//     unconditionally — the predictable baseline. When tracing is off
//     entirely (rate 0) the per-request cost is one atomic load.
//   - The tail sampler (RecordTail) re-examines every completed span
//     and retains the interesting ones the head sampler missed:
//     degraded, denied (suppressed), breaker-affected, dropped, or
//     slower than the SetTailSlow threshold. At 1/1000 head sampling
//     the boring 99.9% is discarded after completion, but the
//     interesting 0.1% is never lost.
//
// The cost model follows: with tracing enabled, every request collects
// a span (timestamps and ids) so the tail decision has something to
// keep; only retained spans pay the ring's mutex.
type Tracer struct {
	every    atomic.Int64 // head-sample every Nth request; 0 = tracing off
	seq      atomic.Int64
	sampled  atomic.Int64 // total spans retained
	tailSlow atomic.Int64 // tail-keep latency threshold in ns; 0 = off

	// kept counts retained spans by keep reason; exposed as
	// histanon_trace_tail_kept_total.
	kept *metrics.CounterVec

	mu   sync.Mutex
	ring []Span
	next int
	full bool
}

// DefaultRingSize is the span capacity of a NewTracer ring.
const DefaultRingSize = 1024

// NewTracer returns a tracer with the given ring capacity (≤ 0 means
// DefaultRingSize) and sampling off.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	return &Tracer{ring: make([]Span, capacity), kept: metrics.NewCounterVec("reason")}
}

// SetSampleRate sets the sampled fraction of requests: 0 disables
// tracing, 1 traces everything, and an intermediate f traces every
// round(1/f)-th request (deterministic, not probabilistic, so overhead
// is stable and tests are reproducible).
func (t *Tracer) SetSampleRate(f float64) {
	switch {
	case f <= 0:
		t.every.Store(0)
	case f >= 1:
		t.every.Store(1)
	default:
		n := int64(1/f + 0.5)
		if n < 1 {
			n = 1
		}
		t.every.Store(n)
	}
}

// SampleEvery returns the current every-Nth setting (0 = off).
func (t *Tracer) SampleEvery() int64 { return t.every.Load() }

// SetTailSlow sets the latency above which a completed span is retained
// by the tail sampler even when the head sampler missed it (0 disables
// the slow-keep rule). Safe to change while requests are in flight.
func (t *Tracer) SetTailSlow(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.tailSlow.Store(d.Nanoseconds())
}

// TailSlow returns the current slow-keep threshold (0 = off).
func (t *Tracer) TailSlow() time.Duration {
	return time.Duration(t.tailSlow.Load())
}

// Sample decides the current request's tracing fate. collect reports
// whether the request should gather a span at all; head reports whether
// the every-Nth head sampler retains it unconditionally. With tracing
// off both are false and the cost is one atomic load; with tracing on,
// every request collects (so the tail decision can rescue interesting
// spans) and every Nth is head-retained.
func (t *Tracer) Sample() (collect, head bool) {
	every := t.every.Load()
	if every == 0 {
		return false, false
	}
	return true, t.seq.Add(1)%every == 0
}

// SampleWithParent is Sample honoring an upstream W3C sampled flag: a
// parent that already decided to keep the trace forces collection and
// head retention, even when local tracing is off.
func (t *Tracer) SampleWithParent(parentSampled bool) (collect, head bool) {
	collect, head = t.Sample()
	if parentSampled {
		return true, true
	}
	return collect, head
}

// Sampled returns how many spans have been retained in total (including
// ones the ring has since overwritten).
func (t *Tracer) Sampled() int64 { return t.sampled.Load() }

// KeptCounters exposes the retained-span counters by keep reason.
func (t *Tracer) KeptCounters() *metrics.CounterVec { return t.kept }

// tailKeep returns the keep reason for a completed span the head
// sampler missed, or "" to discard it.
func (t *Tracer) tailKeep(sp *Span) string {
	switch sp.Outcome {
	case OutcomeDegraded:
		return KeepDegraded
	case OutcomeSuppressed:
		return KeepDenied
	case OutcomeDropped:
		return KeepDropped
	}
	for _, e := range sp.Events {
		if strings.Contains(e.Name, "breaker") {
			return KeepBreaker
		}
	}
	if slow := t.tailSlow.Load(); slow > 0 && sp.TotalNs >= slow {
		return KeepSlow
	}
	return ""
}

// RecordTail finishes the span and runs the keep decision: head-sampled
// spans are always retained; the rest are retained only when the tail
// sampler finds them interesting (degraded, denied, dropped,
// breaker-affected, or slow). Retained spans get their trace identity
// rendered (MaterializeIDs) and enter the ring as a deep-copied
// snapshot, so the ring never aliases a pooled span's memory; the
// discarded majority pays neither. It reports whether the span entered
// the ring.
func (t *Tracer) RecordTail(sp *Span, head bool) bool {
	sp.finish()
	reason := KeepHead
	if !head {
		if reason = t.tailKeep(sp); reason == "" {
			return false
		}
	}
	sp.KeepReason = reason
	sp.MaterializeIDs()
	t.kept.Inc(reason)
	t.sampled.Add(1)
	snap := sp.snapshot()
	t.mu.Lock()
	t.ring[t.next] = snap
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
	return true
}

// Record finishes the span and stores it unconditionally (a
// head-retained RecordTail), overwriting the oldest entry when full.
func (t *Tracer) Record(sp *Span) { t.RecordTail(sp, true) }

// Spans returns a copy of the buffered spans, oldest first.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	if t.full {
		out = make([]Span, 0, len(t.ring))
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring[:t.next]...)
	}
	return out
}

// SpansByTrace returns the buffered spans of one trace id, oldest
// first — the /v1/spans?trace= lookup behind metric exemplars.
func (t *Tracer) SpansByTrace(traceID string) []Span {
	if traceID == "" {
		return nil
	}
	var out []Span
	for _, sp := range t.Spans() {
		if sp.TraceID == traceID {
			out = append(out, sp)
		}
	}
	return out
}
