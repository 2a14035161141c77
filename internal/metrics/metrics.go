// Package metrics provides the dependency-free statistics toolkit the
// experiment harness and the trusted server use to report
// quality-of-service and privacy numbers:
//
//   - Summary — streaming order statistics (mean, quantiles, extrema)
//     over an in-memory sample set that keeps every sample, with an
//     incrementally maintained sorted view so interleaved Add/Quantile
//     traffic stays cheap.
//   - CounterVec — labeled counter families in the Prometheus data
//     model (countervec.go).
//   - Histogram — fixed-bucket, wait-free histograms with merge and
//     quantile estimation, for latency and distribution metrics on the
//     request hot path (histogram.go).
//   - Registry / WritePrometheus — text exposition of all of the above
//     in the Prometheus 0.0.4 format, served by internal/httpapi at
//     GET /metrics (prometheus.go).
//
// Everything is safe for concurrent use. OBSERVABILITY.md at the
// repository root documents the concrete metric families the trusted
// server registers.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Summary accumulates float64 samples and answers order statistics.
// It is safe for concurrent use.
//
// Quantile queries are served from a cached sorted view that is
// invalidated by Add and rebuilt incrementally: only the samples added
// since the last query are sorted and merged into the cache, so an
// interleaved Add/Quantile workload costs O(new·log new + n) per query
// instead of re-sorting all n samples every time (see
// BenchmarkSummaryInterleaved).
type Summary struct {
	mu      sync.Mutex
	samples []float64 // in arrival order; samples[:ns] are merged into sorted
	sorted  []float64 // cached ascending view of samples[:ns]
	ns      int       // how many samples the cache covers
	sum     float64
}

// Add records one sample.
func (s *Summary) Add(v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples = append(s.samples, v)
	s.sum += v
}

// N returns the number of samples.
func (s *Summary) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// Mean returns the sample mean, or NaN with no samples.
func (s *Summary) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return math.NaN()
	}
	return s.sum / float64(len(s.samples))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by nearest-rank over the
// sorted samples, or NaN with no samples.
func (s *Summary) Quantile(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.samples)
	if n == 0 {
		return math.NaN()
	}
	s.refreshSorted()
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return s.sorted[idx]
}

// refreshSorted folds samples added since the last query into the
// sorted cache: sort just the new tail, then merge the two runs.
// Callers hold s.mu.
func (s *Summary) refreshSorted() {
	if s.ns == len(s.samples) {
		return
	}
	tail := append([]float64(nil), s.samples[s.ns:]...)
	sort.Float64s(tail)
	if len(s.sorted) == 0 {
		s.sorted = tail
	} else {
		merged := make([]float64, 0, len(s.sorted)+len(tail))
		i, j := 0, 0
		for i < len(s.sorted) && j < len(tail) {
			if s.sorted[i] <= tail[j] {
				merged = append(merged, s.sorted[i])
				i++
			} else {
				merged = append(merged, tail[j])
				j++
			}
		}
		merged = append(merged, s.sorted[i:]...)
		merged = append(merged, tail[j:]...)
		s.sorted = merged
	}
	s.ns = len(s.samples)
}

// Min returns the smallest sample, or NaN with no samples.
func (s *Summary) Min() float64 { return s.Quantile(0) }

// Max returns the largest sample, or NaN with no samples.
func (s *Summary) Max() float64 { return s.Quantile(1) }

// String renders "n=… mean=… p50=… p95=…".
func (s *Summary) String() string {
	if s.N() == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p95=%.2f max=%.2f",
		s.N(), s.Mean(), s.Quantile(0.5), s.Quantile(0.95), s.Max())
}

// Ratio returns a/b as a float, or NaN when b is zero — handy for rates
// such as disruptions per request.
func Ratio(a, b int64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return float64(a) / float64(b)
}
