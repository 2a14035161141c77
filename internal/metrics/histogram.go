// Fixed-bucket histograms: the bounded, distribution-shaped complement
// to Summary. A Histogram is lock-free on the Observe path
// (atomic adds only), mergeable across shards or replay runs, and
// renders natively into the Prometheus exposition format (see
// prometheus.go).

package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Histogram counts observations into fixed buckets. Bucket i holds the
// observations v with v ≤ bounds[i] (and > bounds[i−1]); one implicit
// overflow bucket (+Inf) catches everything above the last bound. The
// zero value is not usable — construct with NewHistogram.
//
// Observe is wait-free (a binary search plus two atomic adds), so a
// Histogram can sit on a request hot path shared by many goroutines.
type Histogram struct {
	bounds  []float64 // sorted, strictly increasing, finite
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum

	// exemplars holds the last trace-stamped observation per bucket
	// (including the overflow slot); nil entries mean none yet. armed
	// gates capture per bucket: an ObserveExemplar call stores only when
	// it wins the bucket's CAS, so between scrapes at most one
	// observation per bucket pays the Exemplar allocation — the rest pay
	// a single atomic load. RearmExemplars (called by the exposition
	// renderer) re-opens every bucket for a fresh sample.
	exemplars []atomic.Pointer[Exemplar]
	armed     []atomic.Bool
}

// Exemplar is one trace-stamped observation: the last sample recorded
// into a bucket via ObserveExemplar, kept so the exposition can point
// an operator from a latency bucket to the trace that landed there.
type Exemplar struct {
	// TraceID is the W3C trace id of the span that produced the sample.
	TraceID string
	// Value is the observed sample.
	Value float64
}

// NewHistogram returns a histogram over the given finite upper bounds.
// Bounds are sorted and deduplicated; +Inf entries are dropped (an
// overflow bucket always exists). It panics when no finite bound
// remains, or when any bound is NaN.
func NewHistogram(bounds []float64) *Histogram {
	cleaned := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		if math.IsNaN(b) {
			panic("metrics: NaN histogram bound")
		}
		if !math.IsInf(b, 0) {
			cleaned = append(cleaned, b)
		}
	}
	sort.Float64s(cleaned)
	uniq := cleaned[:0]
	for i, b := range cleaned {
		if i == 0 || b != uniq[len(uniq)-1] {
			uniq = append(uniq, b)
		}
	}
	if len(uniq) == 0 {
		panic("metrics: histogram needs at least one finite bound")
	}
	h := &Histogram{
		bounds:    uniq,
		counts:    make([]atomic.Int64, len(uniq)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(uniq)+1),
		armed:     make([]atomic.Bool, len(uniq)+1),
	}
	h.RearmExemplars()
	return h
}

// LinearBuckets returns n bounds start, start+width, … — the natural
// choice for small integer-valued distributions such as achieved k.
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExponentialBuckets returns n bounds start, start·factor, … — the
// natural choice for latencies and areas spanning orders of magnitude.
// It panics when start ≤ 0 or factor ≤ 1.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 {
		panic("metrics: ExponentialBuckets needs start > 0 and factor > 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Observe records one sample. NaN observations are dropped (they would
// poison the sum and fit no bucket).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.observe(v)
}

// ObserveExemplar records one sample and, when the bucket is armed,
// stamps it with the producing trace id, so the exposition can emit an
// OpenMetrics exemplar pointing back to the trace. A bucket disarms
// after one capture and re-arms on the next exposition render
// (RearmExemplars), so between scrapes the common case is one atomic
// load and no allocation; the capture itself is a CAS won by exactly
// one observer, keeping the path wait-free.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if math.IsNaN(v) {
		return
	}
	i := h.observe(v)
	if traceID == "" || !h.armed[i].Load() {
		return
	}
	if h.armed[i].CompareAndSwap(true, false) {
		h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v})
	}
}

// observe counts the sample and returns its bucket index.
func (h *Histogram) observe(v float64) int {
	// sort.SearchFloat64s finds the first bound ≥ v, i.e. the lowest
	// bucket whose upper bound admits v; misses land in the overflow slot.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return i
		}
	}
}

// RearmExemplars re-opens every bucket for one fresh exemplar capture.
// The exposition renderer calls it after emitting a histogram's bucket
// lines, so each scrape interval records at most one trace-stamped
// sample per bucket — recency without a per-observation allocation.
func (h *Histogram) RearmExemplars() {
	for i := range h.armed {
		h.armed[i].Store(true)
	}
}

// Exemplar returns the last trace-stamped observation of bucket i (the
// index space of BucketCounts: the final slot is the overflow bucket).
// ok is false when the bucket has no exemplar yet.
func (h *Histogram) Exemplar(i int) (e Exemplar, ok bool) {
	if i < 0 || i >= len(h.exemplars) {
		return Exemplar{}, false
	}
	p := h.exemplars[i].Load()
	if p == nil {
		return Exemplar{}, false
	}
	return *p, true
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bounds returns the finite bucket upper bounds (not including +Inf).
// The returned slice is shared; callers must not modify it.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// BucketCounts returns the per-bucket (non-cumulative) counts; the last
// entry is the overflow (+Inf) bucket. Under concurrent Observe calls
// the snapshot is per-slot atomic but not globally consistent.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Merge adds o's observations into h. The histograms must have
// identical bucket bounds; Merge returns an error otherwise. Merging a
// histogram into itself is a no-op error.
func (h *Histogram) Merge(o *Histogram) error {
	if h == o {
		return fmt.Errorf("metrics: cannot merge a histogram into itself")
	}
	if len(h.bounds) != len(o.bounds) {
		return fmt.Errorf("metrics: merge bounds mismatch: %d vs %d buckets", len(h.bounds), len(o.bounds))
	}
	for i := range h.bounds {
		if h.bounds[i] != o.bounds[i] {
			return fmt.Errorf("metrics: merge bounds mismatch at %d: %g vs %g", i, h.bounds[i], o.bounds[i])
		}
	}
	for i := range o.counts {
		h.counts[i].Add(o.counts[i].Load())
	}
	h.count.Add(o.count.Load())
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+o.Sum())) {
			return nil
		}
	}
}

// AddBucketCounts folds raw per-bucket counts into h — the merge path
// for aggregators (sliding windows, shard sums, audit replays) that
// accumulate bucket counts outside a Histogram and want quantile and
// exposition support over the sum. counts must have exactly one entry
// per bucket including the overflow slot (len(Bounds())+1), in the
// BucketCounts index space; sum is the corresponding observation sum
// (pass 0 when unknown — Quantile does not use it). Negative counts and
// length mismatches return an error without mutating h.
func (h *Histogram) AddBucketCounts(counts []int64, sum float64) error {
	if len(counts) != len(h.counts) {
		return fmt.Errorf("metrics: AddBucketCounts length mismatch: got %d, want %d", len(counts), len(h.counts))
	}
	var total int64
	for i, c := range counts {
		if c < 0 {
			return fmt.Errorf("metrics: AddBucketCounts negative count %d at bucket %d", c, i)
		}
		total += c
	}
	if math.IsNaN(sum) {
		return fmt.Errorf("metrics: AddBucketCounts NaN sum")
	}
	for i, c := range counts {
		if c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(total)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+sum)) {
			return nil
		}
	}
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts
// by linear interpolation inside the owning bucket. It returns NaN with
// no observations; observations in the overflow bucket resolve to the
// highest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if cum+c >= rank {
			if i >= len(h.bounds) { // overflow bucket
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := float64(rank-cum) / float64(c)
			return lo + frac*(h.bounds[i]-lo)
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}
