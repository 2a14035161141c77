// Package slo is the trusted server's privacy-SLO engine: it turns the
// per-request privacy decisions of the TS pipeline into continuous,
// windowed, alertable signals, so an operator can answer "is privacy
// degrading right now, and how fast?" — the standing-guarantee view the
// paper's §6.1 loop implies but per-request observability (internal/obs)
// cannot provide.
//
// Three parts:
//
//   - Sliding windows (this file) — a single ring of per-second buckets
//     holding achieved-k bucket counts, below-k / suppression /
//     degradation tallies, keyed on the logical decision timestamp the
//     whole system runs on. Configured windows (default 1m/10m/1h) are
//     read as sums over the ring, so one hot-path write feeds every
//     window. The feed is atomics-only and costs one atomic load when
//     the engine is off — the same discipline as internal/obs.
//
//   - Objectives and burn rates (objective.go) — SRE-style multi-window
//     burn evaluation of parsed objectives such as "below_k<0.1%", with
//     ok → warning → page state transitions emitted as KindSLO audit
//     records and histanon_slo_* metrics.
//
//   - Re-identification canary (canary.go) — a rate-limited, read-only
//     background probe replaying recently forwarded generalized
//     requests through the LT-consistency attack against the live
//     store, so the attack the paper defends against is itself a
//     monitored signal.
//
// OBSERVABILITY.md documents every metric family, /v1/slo field and
// KindSLO audit field, plus the burn-rate runbook.
package slo

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"histanon/internal/geo"
	"histanon/internal/metrics"
	"histanon/internal/obs"
)

// kSlots is the number of achieved-k accumulation slots per bucket: one
// per k in [1,20] plus the shared overflow slot — exactly the bucket
// layout of obs.AchievedKBuckets, so window counts replay bit-exactly
// against the audit log (see AchievedKHistogram).
const kSlots = 21

// Decision is the per-request summary the trusted server feeds the
// engine from its decision path. T is the request's logical timestamp
// (the clock the audit log and the whole system run on).
type Decision struct {
	T          int64
	RequestedK int
	// AchievedK is witnesses+1 for generalized requests, 0 otherwise —
	// the same value the audit record carries.
	AchievedK   int
	Generalized bool
	Forwarded   bool
	Suppressed  bool
	Degraded    bool
	// User is the issuing user's internal id — the canary's ground truth
	// for whether the attack re-identified the right user.
	User int64
	// Pseudonym and Box describe the forwarded generalized request as
	// the service provider sees it; the canary replays them through the
	// LT-consistency attack. Zero-valued when not forwarded.
	Pseudonym string
	Box       geo.STBox
}

// BelowK reports whether the decision released (or tried to release) a
// generalized context weaker than the policy asked for: Algorithm 1 ran
// and the achieved anonymity fell short of the requested k.
func (d Decision) BelowK() bool {
	return d.AchievedK > 0 && d.RequestedK > 0 && d.AchievedK < d.RequestedK
}

// bucket is one ring slot: the privacy tallies of one bucketSec-wide
// interval of logical time. epoch is the absolute bucket number
// (t / bucketSec), or resettingEpoch while a writer zeroes the slot for
// reuse.
type bucket struct {
	epoch      atomic.Int64
	decisions  atomic.Int64
	belowK     atomic.Int64
	suppressed atomic.Int64
	degraded   atomic.Int64
	k          [kSlots]atomic.Int64
}

const resettingEpoch = int64(-1)

func (b *bucket) reset() {
	b.decisions.Store(0)
	b.belowK.Store(0)
	b.suppressed.Store(0)
	b.degraded.Store(0)
	for i := range b.k {
		b.k[i].Store(0)
	}
}

// WindowSpec is one sliding window read over the ring.
type WindowSpec struct {
	// Name labels the window in metrics and /v1/slo ("1m", "10m", …).
	Name string
	// Seconds is the window span; it must be a positive multiple of the
	// engine's bucket size.
	Seconds int64
}

// Options configures an engine. The zero value gets the defaults:
// 1s buckets, 1m/10m/1h windows, the below_k<0.1% objective.
type Options struct {
	// BucketSeconds is the ring granularity (default 1).
	BucketSeconds int64
	// Windows are the sliding windows, shortest first (default
	// 1m/10m/1h). Burn-rate evaluation uses the shortest, middle and
	// longest windows as its short/mid/long horizons.
	Windows []WindowSpec
	// Objectives are the privacy objectives to evaluate (default
	// below_k<0.1%).
	Objectives []Objective
	// MinEvalGap throttles burn-rate evaluation: at most one evaluation
	// per this much wall time, no matter how fast logical time advances
	// (default 250ms; negative disables the throttle — tests use that
	// for determinism).
	MinEvalGap time.Duration
}

// DefaultWindows returns the 1m/10m/1h window set.
func DefaultWindows() []WindowSpec {
	return []WindowSpec{{"1m", 60}, {"10m", 600}, {"1h", 3600}}
}

// Engine is the windowed privacy-SLO engine. Construct with New; the
// zero value is not usable. All methods are safe for concurrent use.
// The engine starts disabled: Observe is one atomic load until
// SetEnabled(true).
type Engine struct {
	enabled   atomic.Bool
	bucketSec int64
	buckets   []bucket
	windows   []WindowSpec

	// maxT is the latest decision timestamp observed (the engine's
	// logical "now"); -1 before any decision.
	maxT atomic.Int64

	// Lifetime totals backing the histanon_slo_*_total counters.
	decisionsTotal atomic.Int64
	belowKTotal    atomic.Int64
	droppedLate    atomic.Int64

	// Burn-rate evaluation: triggered when logical time enters a new
	// bucket (at most once per bucket), wall-throttled by minEvalGap.
	evalEpoch    atomic.Int64
	lastEvalWall atomic.Int64
	minEvalGap   time.Duration

	evalMu     sync.Mutex
	objectives []Objective
	states     []State
	since      []int64

	transitions *metrics.CounterVec // labels: objective, to

	audit  atomic.Pointer[func(obs.Event)]
	canary atomic.Pointer[Canary]
}

// New returns an engine over the given options (zero fields get
// defaults). It panics when a window span is not a positive multiple of
// the bucket size — a wiring-time error, like metrics registration.
func New(opts Options) *Engine {
	if opts.BucketSeconds <= 0 {
		opts.BucketSeconds = 1
	}
	if len(opts.Windows) == 0 {
		opts.Windows = DefaultWindows()
	}
	if len(opts.Objectives) == 0 {
		opts.Objectives = DefaultObjectives()
	}
	if opts.MinEvalGap == 0 {
		opts.MinEvalGap = 250 * time.Millisecond
	}
	longest := int64(0)
	for _, w := range opts.Windows {
		if w.Seconds <= 0 || w.Seconds%opts.BucketSeconds != 0 {
			panic("slo: window span must be a positive multiple of the bucket size")
		}
		if w.Seconds > longest {
			longest = w.Seconds
		}
	}
	e := &Engine{
		bucketSec:   opts.BucketSeconds,
		buckets:     make([]bucket, longest/opts.BucketSeconds+2),
		windows:     append([]WindowSpec(nil), opts.Windows...),
		objectives:  append([]Objective(nil), opts.Objectives...),
		states:      make([]State, len(opts.Objectives)),
		since:       make([]int64, len(opts.Objectives)),
		minEvalGap:  opts.MinEvalGap,
		transitions: metrics.NewCounterVec("objective", "to"),
	}
	for i := range e.states {
		e.states[i] = StateOK
	}
	e.maxT.Store(-1)
	e.evalEpoch.Store(-1)
	return e
}

// SetEnabled turns the engine on or off. Off, Observe costs one atomic
// load. Safe to toggle while requests are in flight.
func (e *Engine) SetEnabled(on bool) { e.enabled.Store(on) }

// Enabled reports whether the engine is recording.
func (e *Engine) Enabled() bool { return e.enabled.Load() }

// SetAudit installs the sink KindSLO state-transition records are
// written to (the trusted server wires its audit log here).
func (e *Engine) SetAudit(fn func(obs.Event)) {
	if fn == nil {
		e.audit.Store(nil)
		return
	}
	e.audit.Store(&fn)
}

// AttachCanary installs (or, with nil, removes) the re-identification
// canary fed from the decision path.
func (e *Engine) AttachCanary(c *Canary) { e.canary.Store(c) }

// CanaryAttached returns the attached canary, or nil.
func (e *Engine) CanaryAttached() *Canary { return e.canary.Load() }

// Windows returns the configured window specs.
func (e *Engine) Windows() []WindowSpec { return e.windows }

// Objectives returns the configured objectives.
func (e *Engine) Objectives() []Objective { return e.objectives }

// DecisionsTotal and BelowKTotal are the lifetime counters behind the
// histanon_slo_decisions_total / histanon_slo_below_k_total families.
func (e *Engine) DecisionsTotal() int64 { return e.decisionsTotal.Load() }

// BelowKTotal returns the lifetime below-k decision count.
func (e *Engine) BelowKTotal() int64 { return e.belowKTotal.Load() }

// DroppedLate counts decisions whose timestamp was too old for the ring
// (more than the longest window behind the newest decision).
func (e *Engine) DroppedLate() int64 { return e.droppedLate.Load() }

// Observe feeds one decision into every window. When the engine is off
// this is a single atomic load; when on, a handful of uncontended
// atomic adds into the ring bucket the decision's timestamp selects.
func (e *Engine) Observe(d Decision) {
	if !e.enabled.Load() {
		return
	}
	if d.T < 0 {
		return
	}
	e.advanceMaxT(d.T)
	e.decisionsTotal.Add(1)
	below := d.BelowK()
	if below {
		e.belowKTotal.Add(1)
	}
	if b := e.bucketFor(d.T); b != nil {
		b.decisions.Add(1)
		if below {
			b.belowK.Add(1)
		}
		if d.Suppressed {
			b.suppressed.Add(1)
		}
		if d.Degraded {
			b.degraded.Add(1)
		}
		if d.AchievedK > 0 {
			b.k[kSlot(d.AchievedK)].Add(1)
		}
	} else {
		e.droppedLate.Add(1)
	}
	if d.Forwarded && d.Generalized && d.Pseudonym != "" {
		if c := e.canary.Load(); c != nil {
			c.capture(d)
		}
	}
	e.maybeEvaluate(d.T)
}

// kSlot maps an achieved-k value to its accumulation slot: k−1 for k in
// [1,20], the overflow slot above — the index obs.AchievedKBuckets
// assigns the same value.
func kSlot(k int) int {
	if k >= kSlots {
		return kSlots - 1
	}
	return k - 1
}

func (e *Engine) advanceMaxT(t int64) {
	for {
		cur := e.maxT.Load()
		if t <= cur || e.maxT.CompareAndSwap(cur, t) {
			return
		}
	}
}

// bucketFor returns the ring slot for logical time t, rotating the slot
// to t's epoch if it still holds an older interval. It returns nil for
// timestamps older than the ring's reach (late arrivals are dropped
// rather than misfiled). Rotation is a short CAS critical section; at
// most one writer resets a slot while others spin.
func (e *Engine) bucketFor(t int64) *bucket {
	epoch := t / e.bucketSec
	b := &e.buckets[int(epoch%int64(len(e.buckets)))]
	for {
		cur := b.epoch.Load()
		switch {
		case cur == epoch:
			return b
		case cur == resettingEpoch:
			runtime.Gosched()
		case cur > epoch:
			return nil
		default:
			if b.epoch.CompareAndSwap(cur, resettingEpoch) {
				b.reset()
				b.epoch.Store(epoch)
				return b
			}
		}
	}
}

// WindowSnapshot is the aggregate of one window at one instant.
type WindowSnapshot struct {
	Name string
	// Seconds is the window span; Start/End is the half-open logical
	// interval the snapshot covers (End = now+1 so the current second's
	// partial bucket is included).
	Seconds    int64
	Start, End int64
	Decisions  int64
	BelowK     int64
	Suppressed int64
	Degraded   int64
	// K holds the achieved-k accumulation slots (see AchievedKHistogram).
	K [kSlots]int64
}

// BelowKRatio returns belowK/decisions, 0 with no decisions.
func (s WindowSnapshot) BelowKRatio() float64 { return ratio(s.BelowK, s.Decisions) }

// SuppressionRatio returns suppressed/decisions, 0 with no decisions.
func (s WindowSnapshot) SuppressionRatio() float64 { return ratio(s.Suppressed, s.Decisions) }

// DegradedRatio returns degraded/decisions, 0 with no decisions.
func (s WindowSnapshot) DegradedRatio() float64 { return ratio(s.Degraded, s.Decisions) }

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// KQuantile estimates the q-quantile of the achieved-k distribution in
// the window, with the same linear interpolation as
// metrics.Histogram.Quantile over obs.AchievedKBuckets. It returns 0
// when the window saw no generalized decisions.
func (s WindowSnapshot) KQuantile(q float64) float64 {
	h := metrics.NewHistogram(obs.AchievedKBuckets())
	if err := h.AddBucketCounts(s.K[:], 0); err != nil {
		return 0
	}
	v := h.Quantile(q)
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// AchievedKHistogram converts the snapshot's k counts into a histogram
// with the audit log's replay buckets (obs.AchievedKBuckets), so window
// aggregates and obs.ReplayAchievedK compare bucket-for-bucket.
func (s WindowSnapshot) AchievedKHistogram() *metrics.Histogram {
	h := metrics.NewHistogram(obs.AchievedKBuckets())
	// The bounds are obs.AchievedKBuckets: kSlots counts always fit.
	_ = h.AddBucketCounts(s.K[:], 0)
	return h
}

// Now returns the engine's logical clock: the latest decision timestamp
// observed, or -1 before any decision.
func (e *Engine) Now() int64 { return e.maxT.Load() }

// Snapshot aggregates one window as of logical time now (pass Now()).
// ok is false for unknown window names.
func (e *Engine) Snapshot(name string, now int64) (WindowSnapshot, bool) {
	for _, w := range e.windows {
		if w.Name == name {
			return e.snapshotWindow(w, now), true
		}
	}
	return WindowSnapshot{}, false
}

// Snapshots aggregates every configured window as of logical time now.
func (e *Engine) Snapshots(now int64) []WindowSnapshot {
	out := make([]WindowSnapshot, len(e.windows))
	for i, w := range e.windows {
		out[i] = e.snapshotWindow(w, now)
	}
	return out
}

func (e *Engine) snapshotWindow(w WindowSpec, now int64) WindowSnapshot {
	s := WindowSnapshot{Name: w.Name, Seconds: w.Seconds}
	if now < 0 {
		return s
	}
	endEpoch := now / e.bucketSec
	startEpoch := endEpoch - w.Seconds/e.bucketSec + 1
	if startEpoch < 0 {
		startEpoch = 0
	}
	s.Start = startEpoch * e.bucketSec
	s.End = now + 1
	e.sumRange(&s, startEpoch, endEpoch)
	return s
}

// IntervalSnapshot sums the ring buckets fully covering the half-open
// logical interval [start, end). Both bounds must be multiples of the
// bucket size; ok is false otherwise. Buckets already evicted from the
// ring (overwritten by newer epochs) contribute nothing — callers
// wanting bit-exact agreement with an audit replay must query within
// the longest window's reach.
func (e *Engine) IntervalSnapshot(start, end int64) (WindowSnapshot, bool) {
	if start < 0 || end <= start || start%e.bucketSec != 0 || end%e.bucketSec != 0 {
		return WindowSnapshot{}, false
	}
	s := WindowSnapshot{Name: "interval", Seconds: end - start, Start: start, End: end}
	e.sumRange(&s, start/e.bucketSec, end/e.bucketSec-1)
	return s, true
}

// sumRange adds every resident bucket with epoch in [startEpoch,
// endEpoch] into s.
func (e *Engine) sumRange(s *WindowSnapshot, startEpoch, endEpoch int64) {
	n := int64(len(e.buckets))
	span := endEpoch - startEpoch + 1
	if span > n {
		startEpoch = endEpoch - n + 1
	}
	for epoch := startEpoch; epoch <= endEpoch; epoch++ {
		b := &e.buckets[int(epoch%n)]
		if b.epoch.Load() != epoch {
			continue
		}
		d := b.decisions.Load()
		below := b.belowK.Load()
		sup := b.suppressed.Load()
		deg := b.degraded.Load()
		var ks [kSlots]int64
		for i := range ks {
			ks[i] = b.k[i].Load()
		}
		// A rotation may have raced the reads; only fold the bucket in
		// if it still covers the epoch (counts are monotone within an
		// epoch, so a stable epoch brackets a consistent-enough sum).
		if b.epoch.Load() != epoch {
			continue
		}
		s.Decisions += d
		s.BelowK += below
		s.Suppressed += sup
		s.Degraded += deg
		for i := range ks {
			s.K[i] += ks[i]
		}
	}
}

// maybeEvaluate runs the burn-rate evaluation when logical time has
// entered a new bucket since the last evaluation, throttled to at most
// one evaluation per minEvalGap of wall time (logical time can advance
// thousands of buckets per wall second under replay or benchmark
// workloads).
func (e *Engine) maybeEvaluate(t int64) {
	epoch := t / e.bucketSec
	last := e.evalEpoch.Load()
	if epoch <= last {
		return
	}
	if e.minEvalGap > 0 {
		now := time.Now().UnixNano()
		lastWall := e.lastEvalWall.Load()
		if now-lastWall < int64(e.minEvalGap) {
			return
		}
		if !e.lastEvalWall.CompareAndSwap(lastWall, now) {
			return
		}
	}
	if !e.evalEpoch.CompareAndSwap(last, epoch) {
		return
	}
	e.Evaluate(e.maxT.Load())
}
