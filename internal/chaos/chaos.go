// Package chaos injects deterministic faults into the trusted server's
// dependencies so the privacy invariants can be proven to hold under
// failure, not just in the happy path. The paper's guarantee — an SP
// never sees a context weaker than Def. 8 allows — must survive SP
// outages, slow stores and overload; internal/resilience provides the
// fail-closed machinery and this package provides the adversarial
// environment that exercises it.
//
// Every fault source is seeded: a schedule is a pure function of its
// seed, so a failing run replays exactly. The package provides:
//
//   - SP — a fallible recording service provider (resilience.Delivery)
//     with per-attempt error probabilities, injected latency and
//     call-indexed outage windows.
//   - Clock — a virtual clock (resilience.Clock) whose Sleep advances
//     virtual time instantly, with skew and manual-advance hooks.
//   - SlowIndex — a spatio-temporal index wrapper (stindex.Index)
//     injecting latency into the KNN/box queries on Algorithm 1's path.
//
// The package's test suite runs the invariant checks across hundreds of
// seeded schedules; the CI chaos job runs it under the race detector.
package chaos

import (
	"sync"
	"time"

	"histanon/internal/wire"
)

// splitmix64 is the deterministic bit mixer behind every fault draw
// (same generator the resilience jitter uses).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// frac maps a seed to a uniform float in [0,1).
func frac(x uint64) float64 {
	return float64(splitmix64(x)>>11) / float64(1<<53)
}

// Faults configures an SP's failure behavior. The zero value is a
// perfectly healthy provider.
type Faults struct {
	// Seed drives every probabilistic draw; the same seed replays the
	// same fault schedule.
	Seed uint64
	// PError is the probability that one delivery attempt fails.
	PError float64
	// PLatency is the probability that one attempt stalls for Latency
	// (on the injected clock) before answering.
	PLatency float64
	// Latency is the injected stall duration.
	Latency time.Duration
	// Outages lists [from,to) windows of the per-SP attempt counter
	// during which every attempt fails — a hard outage, the scenario
	// that trips the circuit breaker.
	Outages [][2]int64
}

// spError is the failure an SP attempt returns.
type spError struct{ msg string }

func (e *spError) Error() string { return e.msg }

// errInjected is returned by every injected delivery failure.
var errInjected = &spError{"chaos: injected SP failure"}

// SP is a fallible, recording service provider: the chaos counterpart
// of sp.Provider. It implements resilience.Delivery; each attempt
// consults the fault schedule, and only successful attempts record the
// request. Safe for concurrent use.
type SP struct {
	faults Faults
	clock  *Clock

	mu        sync.Mutex
	attempts  int64
	delivered []*wire.Request
}

// NewSP returns a provider with the given fault schedule. clock, when
// non-nil, receives the injected latency (via Sleep); a nil clock skips
// latency injection entirely.
func NewSP(faults Faults, clock *Clock) *SP {
	return &SP{faults: faults, clock: clock}
}

// Deliver implements resilience.Delivery: one delivery attempt against
// the fault schedule. The outcome of attempt i is a pure function of
// (Seed, i).
func (s *SP) Deliver(req *wire.Request) error {
	s.mu.Lock()
	i := s.attempts
	s.attempts++
	s.mu.Unlock()

	fail := false
	for _, w := range s.faults.Outages {
		if i >= w[0] && i < w[1] {
			fail = true
			break
		}
	}
	draw := s.faults.Seed + uint64(i)*2
	if !fail && s.faults.PError > 0 && frac(draw) < s.faults.PError {
		fail = true
	}
	if s.clock != nil && s.faults.PLatency > 0 && frac(draw+1) < s.faults.PLatency {
		s.clock.Sleep(s.faults.Latency)
	}
	if fail {
		return errInjected
	}
	s.mu.Lock()
	s.delivered = append(s.delivered, req)
	s.mu.Unlock()
	return nil
}

// Delivered returns the successfully delivered requests in arrival
// order.
func (s *SP) Delivered() []*wire.Request {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*wire.Request, len(s.delivered))
	copy(out, s.delivered)
	return out
}

// Attempts returns the total delivery attempts seen.
func (s *SP) Attempts() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attempts
}
