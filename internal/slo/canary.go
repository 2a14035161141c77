// The re-identification canary: a background probe that periodically
// replays recently forwarded generalized requests through the paper's
// LT-consistency attack (Def. 7 intersected per pseudonym series:
// sp.Score, the attack every experiment runs offline) against the live
// store. The canary is the adversary's view run continuously by
// the defender: if generalization weakens — population thins, policies
// loosen, an index bug ships — the canary's link probability rises
// before any user is actually identified by a real attacker.
//
// Safety properties, each pinned by tests:
//
//   - Read-only by construction: the canary sees the store through
//     AttackStore, an interface carrying only LTConsistentUsers.
//   - Rate-limited: probes run at most once per Interval of wall time,
//     no matter how often Probe is called.
//   - Pressure-deferent: when the server is shedding load the canary
//     skips its probe silently — the gauges go stale (age climbs,
//     /healthz notes it) instead of competing with admission.

package slo

import (
	"sync"
	"sync/atomic"
	"time"

	"histanon/internal/geo"
	"histanon/internal/link"
	"histanon/internal/phl"
	"histanon/internal/sp"
	"histanon/internal/wire"
)

// AttackStore is the canary's view of the live store: exactly the one
// read the LT-consistency attack needs, and nothing that can mutate.
// Both *phl.Store and the tiered storage backend satisfy it.
type AttackStore = sp.AttackStore

// CanaryOptions configures a canary. Zero fields get defaults.
type CanaryOptions struct {
	// Store is the live store the attack runs against. Required.
	Store AttackStore
	// Interval is the minimum wall time between probes (default 5s).
	Interval time.Duration
	// RingSize bounds the capture ring (default 512 captures).
	RingSize int
	// SampleEvery captures every Nth forwarded generalized request
	// (default 1: capture all — the ring bound, not sampling, limits
	// memory; raise it on very hot deployments).
	SampleEvery int
	// MaxSeries and MaxBoxes cap each probe's work: at most MaxSeries
	// pseudonym series attacked, at most MaxBoxes boxes intersected per
	// series (defaults 64 and 16).
	MaxSeries int
	MaxBoxes  int
	// Pressure, when set, reports whether the server is under admission
	// pressure; probes are skipped (and counted) while it returns true.
	Pressure func() bool
}

// capture is one ring entry: a forwarded generalized request as the
// service provider saw it, plus the ground-truth issuer.
type capture struct {
	t    int64
	user int64
	pseu string
	box  geo.STBox
}

// CanaryResult is one probe's outcome.
type CanaryResult struct {
	// WallNano is when the probe ran; T is the newest capture's logical
	// timestamp.
	WallNano int64 `json:"-"`
	T        int64 `json:"t"`
	// Captures is how many ring entries the probe attacked over; Series
	// is how many pseudonym series they formed; Attacked ≤ Series after
	// the MaxSeries cap.
	Captures int `json:"captures"`
	Series   int `json:"series"`
	Attacked int `json:"attacked"`
	// Identified counts series whose LT-consistent candidate set was
	// exactly the issuer — full re-identification.
	Identified int `json:"identified"`
	// AnonSetMean is the mean candidate-set size over attacked series
	// (the paper's anonymity set; ≥ 1 because the issuer is always
	// consistent with their own boxes).
	AnonSetMean float64 `json:"anon_set_mean"`
	// LinkProbability is the mean probability the attack assigns to the
	// correct user: 1/|candidates| per series, 1.0 when re-identified.
	LinkProbability float64 `json:"link_probability"`
	// CrossRotationMax is the strongest Tracking-linker likelihood
	// between the last ≤3 captures under a user's old pseudonym and the
	// first ≤3 under the new one (link.RotationLikelihoods), over every
	// rotation in the ring (−1 when the captures span no rotation).
	CrossRotationMax float64 `json:"cross_rotation_max"`
}

// ReidentifiedRatio returns Identified/Attacked, 0 with no series.
func (r CanaryResult) ReidentifiedRatio() float64 {
	return ratio(int64(r.Identified), int64(r.Attacked))
}

// Canary is the live re-identification probe. Construct with
// NewCanary; attach to an engine with Engine.AttachCanary.
type Canary struct {
	store       AttackStore
	interval    time.Duration
	sampleEvery int64
	maxSeries   int
	maxBoxes    int
	pressure    func() bool

	seq atomic.Int64 // forwarded-capture sequence, drives sampling

	mu   sync.Mutex
	ring []capture
	n    int // entries written; min(n, len(ring)) are valid

	lastProbeWall atomic.Int64 // wall nanos of last successful probe
	probeGate     atomic.Int64 // wall nanos gate for the rate limit
	probes        atomic.Int64
	skipPressure  atomic.Int64
	skipRateLimit atomic.Int64
	skipEmpty     atomic.Int64
	last          atomic.Pointer[CanaryResult]

	// now is the wall clock, swappable in tests.
	now func() time.Time
}

// NewCanary returns a canary over the given options. It panics when
// Store is nil (a wiring-time error).
func NewCanary(opts CanaryOptions) *Canary {
	if opts.Store == nil {
		panic("slo: canary needs a store")
	}
	if opts.Interval <= 0 {
		opts.Interval = 5 * time.Second
	}
	if opts.RingSize <= 0 {
		opts.RingSize = 512
	}
	if opts.SampleEvery <= 0 {
		opts.SampleEvery = 1
	}
	if opts.MaxSeries <= 0 {
		opts.MaxSeries = 64
	}
	if opts.MaxBoxes <= 0 {
		opts.MaxBoxes = 16
	}
	return &Canary{
		store:       opts.Store,
		interval:    opts.Interval,
		sampleEvery: int64(opts.SampleEvery),
		maxSeries:   opts.MaxSeries,
		maxBoxes:    opts.MaxBoxes,
		pressure:    opts.Pressure,
		ring:        make([]capture, opts.RingSize),
		now:         time.Now,
	}
}

// capture records one forwarded generalized decision into the ring
// (called by Engine.Observe). Sampling is an atomic increment; admitted
// captures take a short mutex to write one ring slot.
func (c *Canary) capture(d Decision) {
	if c.seq.Add(1)%c.sampleEvery != 0 {
		return
	}
	c.mu.Lock()
	c.ring[c.n%len(c.ring)] = capture{t: d.T, user: d.User, pseu: d.Pseudonym, box: d.Box}
	c.n++
	c.mu.Unlock()
}

// Captured returns how many decisions are currently in the ring.
func (c *Canary) Captured() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n < len(c.ring) {
		return c.n
	}
	return len(c.ring)
}

// Probe runs one attack round if the rate limit allows and the server
// is not under pressure. It returns the result and ok=true when a probe
// actually ran; ok=false means the probe was skipped (rate limit,
// pressure, or an empty ring) and the previous result stands.
func (c *Canary) Probe() (CanaryResult, bool) {
	now := c.now().UnixNano()
	gate := c.probeGate.Load()
	if now-gate < int64(c.interval) {
		c.skipRateLimit.Add(1)
		return CanaryResult{}, false
	}
	if !c.probeGate.CompareAndSwap(gate, now) {
		c.skipRateLimit.Add(1)
		return CanaryResult{}, false
	}
	if c.pressure != nil && c.pressure() {
		c.skipPressure.Add(1)
		return CanaryResult{}, false
	}
	caps := c.snapshotRing()
	if len(caps) == 0 {
		c.skipEmpty.Add(1)
		return CanaryResult{}, false
	}
	res := c.attack(caps)
	res.WallNano = c.now().UnixNano()
	c.last.Store(&res)
	c.lastProbeWall.Store(res.WallNano)
	c.probes.Add(1)
	return res, true
}

// snapshotRing copies the valid ring entries out under the mutex,
// oldest first: once the ring has wrapped, the oldest entry is the slot
// the next capture overwrites.
func (c *Canary) snapshotRing() []capture {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n <= len(c.ring) {
		return append([]capture(nil), c.ring[:c.n]...)
	}
	next := c.n % len(c.ring)
	return append(append([]capture(nil), c.ring[next:]...), c.ring[:next]...)
}

// attack replays the captures, oldest first, through sp.Score: group
// the forwarded boxes by pseudonym (the identity the SP actually sees),
// attack the first MaxSeries series with their first MaxBoxes boxes
// each, and measure the Tracking linker across each user's rotations.
func (c *Canary) attack(caps []capture) CanaryResult {
	res := CanaryResult{Captures: len(caps), CrossRotationMax: -1}
	log := make([]sp.Logged, len(caps))
	for i, cp := range caps {
		res.T = max(res.T, cp.t)
		log[i] = sp.Logged{Issuer: phl.UserID(cp.user),
			Req: &wire.Request{Pseudonym: wire.Pseudonym(cp.pseu), Context: cp.box}}
	}
	series, byUser := sp.Split(log, c.maxBoxes)
	res.Series = len(series)
	rep := sp.Score(c.store, series[:min(len(series), c.maxSeries)])
	res.Attacked = len(rep.Groups)
	res.Identified = rep.IdentifiedGroups()
	res.AnonSetMean = rep.MeanAnonymity()
	res.LinkProbability = rep.LinkProbability()
	for _, l := range link.RotationLikelihoods(byUser, 3, 0, link.Tracking{}) {
		res.CrossRotationMax = max(res.CrossRotationMax, l)
	}
	return res
}

// Run probes on a ticker until stop is closed — the background loop
// lbserve starts when -canary-interval > 0. Rate limiting still applies
// inside Probe, so a short ticker cannot out-probe the interval.
func (c *Canary) Run(stop <-chan struct{}) {
	tick := time.NewTicker(c.interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			c.Probe()
		}
	}
}

// Last returns the most recent probe result and whether one exists.
func (c *Canary) Last() (CanaryResult, bool) {
	if p := c.last.Load(); p != nil {
		return *p, true
	}
	return CanaryResult{}, false
}

// AgeSeconds returns the wall seconds since the last successful probe,
// or −1 when none has run yet. /healthz flags the canary stale when
// this exceeds a few intervals.
func (c *Canary) AgeSeconds() float64 {
	last := c.lastProbeWall.Load()
	if last == 0 {
		return -1
	}
	return float64(c.now().UnixNano()-last) / 1e9
}

// Stale reports whether the canary has captures to attack but has not
// probed successfully within three intervals — the /healthz degraded
// signal that pressure or failures are starving the canary.
func (c *Canary) Stale() bool {
	if c.Captured() == 0 {
		return false
	}
	age := c.AgeSeconds()
	return age < 0 || age > 3*c.interval.Seconds()
}

// Probes returns how many probes have completed.
func (c *Canary) Probes() int64 { return c.probes.Load() }

// Skips returns the probe-skip counts by cause.
func (c *Canary) Skips() (pressure, rateLimit, empty int64) {
	return c.skipPressure.Load(), c.skipRateLimit.Load(), c.skipEmpty.Load()
}
