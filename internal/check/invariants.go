package check

import (
	"fmt"
	"math/rand"
	"sync"

	"histanon/internal/anon"
	"histanon/internal/generalize"
	"histanon/internal/geo"
	"histanon/internal/mixzone"
	"histanon/internal/phl"
	"histanon/internal/pseudonym"
	"histanon/internal/stindex"
	"histanon/internal/wire"
)

// tolEps forgives the one float multiplication of Rect.ShrinkToward: a
// clamped width is maxW up to rounding, never meaningfully more.
const tolEps = 1e-6

// PopulationConfig parameterizes a random PHL population for the
// privacy-layer checkers. Coordinates are continuous (no lattice
// snapping), so distance ties have probability zero and the
// k-monotonicity property is well defined.
type PopulationConfig struct {
	Seed           int64
	Users          int
	SamplesPerUser int
	Extent         float64
	TimeSpan       int64
	TimeScale      float64
}

func (c PopulationConfig) withDefaults() PopulationConfig {
	if c.Users <= 0 {
		c.Users = 24
	}
	if c.SamplesPerUser <= 0 {
		c.SamplesPerUser = 8
	}
	if c.Extent <= 0 {
		c.Extent = 2000
	}
	if c.TimeSpan <= 0 {
		c.TimeSpan = 7200
	}
	if c.TimeScale <= 0 {
		c.TimeScale = 0.5
	}
	return c
}

// Population is a PHL store and a spatio-temporal index holding the
// same samples — the two views Algorithm 1 requires to agree.
type Population struct {
	Cfg    PopulationConfig
	Store  phl.Storer
	Index  stindex.Index
	Metric geo.STMetric
	// Rng continues the generator stream past population building, so
	// query points are derived from the same single seed.
	Rng *rand.Rand
}

// NewPopulation builds a population with user trajectories random-walked
// over the extent. mk constructs the index (nil means brute force).
func NewPopulation(cfg PopulationConfig, mk func() stindex.Index) *Population {
	cfg = cfg.withDefaults()
	if mk == nil {
		mk = func() stindex.Index { return stindex.NewBrute() }
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := &Population{
		Cfg:    cfg,
		Store:  phl.NewStore(),
		Index:  mk(),
		Metric: geo.STMetric{TimeScale: cfg.TimeScale},
		Rng:    rng,
	}
	half := cfg.Extent / 2
	step := cfg.Extent / 20
	for u := 0; u < cfg.Users; u++ {
		pos := geo.Point{X: rng.Float64()*cfg.Extent - half, Y: rng.Float64()*cfg.Extent - half}
		for i := 0; i < cfg.SamplesPerUser; i++ {
			pos.X = clamp(pos.X+rng.NormFloat64()*step, -half, half)
			pos.Y = clamp(pos.Y+rng.NormFloat64()*step, -half, half)
			sample := geo.STPoint{P: pos, T: int64(float64(cfg.TimeSpan) * (float64(i) + rng.Float64()) / float64(cfg.SamplesPerUser))}
			p.Record(phl.UserID(u), sample)
		}
	}
	return p
}

// Record adds a sample to both views.
func (p *Population) Record(u phl.UserID, pt geo.STPoint) {
	p.Store.Record(u, pt)
	p.Index.Insert(u, pt)
}

// Generalizer returns an Algorithm 1 runner over the population.
// randomizeSeed != 0 enables the §7 box randomizer.
func (p *Population) Generalizer(randomizeSeed int64) *generalize.Generalizer {
	g := &generalize.Generalizer{Index: p.Index, Store: p.Store, Metric: p.Metric}
	if randomizeSeed != 0 {
		g.Randomize = generalize.NewRandomizer(randomizeSeed)
	}
	return g
}

// RandomQuery returns a query point inside the populated region.
func (p *Population) RandomQuery() geo.STPoint {
	half := p.Cfg.Extent / 2
	return geo.STPoint{
		P: geo.Point{X: p.Rng.Float64()*p.Cfg.Extent - half, Y: p.Rng.Float64()*p.Cfg.Extent - half},
		T: int64(p.Rng.Float64() * float64(p.Cfg.TimeSpan)),
	}
}

// allowsWithin is Tolerance.Allows with rounding slack on the spatial
// axes (temporal clamping is exact integer arithmetic).
func allowsWithin(tol generalize.Tolerance, b geo.STBox) bool {
	if tol.MaxWidth > 0 && b.Area.Width() > tol.MaxWidth*(1+tolEps) {
		return false
	}
	if tol.MaxHeight > 0 && b.Area.Height() > tol.MaxHeight*(1+tolEps) {
		return false
	}
	if tol.MaxDuration > 0 && b.Time.Duration() > tol.MaxDuration {
		return false
	}
	return true
}

// CheckFirstElement runs Algorithm 1's first-element branch and verifies
// its contract (paper Algorithm 1 lines 5–13 and Def. 8):
//
//   - ok is true exactly when k-1 other users exist;
//   - the output box is valid and encloses the exact request point, even
//     after tolerance clamping and randomization;
//   - exactly k-1 distinct witnesses are selected, never the issuer;
//   - the box satisfies the tolerance (clamping guarantees this whether
//     or not anonymity survived);
//   - when HKAnonymity is reported, the box encloses every witness
//     sample and the achieved historical level is at least k.
func CheckFirstElement(p *Population, g *generalize.Generalizer, q geo.STPoint, issuer phl.UserID, k int, tol generalize.Tolerance) error {
	res, ok := g.FirstElement(q, issuer, k, tol)
	others := p.Store.NumUsers()
	for _, u := range p.Store.Users() {
		if u == issuer {
			others--
		}
	}
	if wantOK := k >= 1 && others >= k-1; ok != wantOK {
		return fmt.Errorf("FirstElement ok=%v, want %v (k=%d, %d other users)", ok, wantOK, k, others)
	}
	if !ok {
		return nil
	}
	if !res.Box.Valid() {
		return fmt.Errorf("invalid box %v", res.Box)
	}
	if !res.Box.Contains(q) {
		return fmt.Errorf("box %v does not enclose the request point %v", res.Box, q)
	}
	if len(res.Users) != k-1 {
		return fmt.Errorf("%d witnesses selected, want k-1=%d", len(res.Users), k-1)
	}
	seen := map[phl.UserID]bool{}
	for _, u := range res.Users {
		if u == issuer {
			return fmt.Errorf("issuer %v selected as their own witness", issuer)
		}
		if seen[u] {
			return fmt.Errorf("witness %v selected twice", u)
		}
		seen[u] = true
	}
	if !allowsWithin(tol, res.Box) {
		return fmt.Errorf("box %v violates tolerance %v (HKAnonymity=%v)", res.Box, tol, res.HKAnonymity)
	}
	if res.HKAnonymity {
		for i, pt := range res.Points {
			if !res.Box.Contains(pt) {
				return fmt.Errorf("HK-anonymous box %v misses witness sample %v (user %v)", res.Box, pt, res.Users[i])
			}
		}
		if lvl := anon.HistoricalLevel(p.Store, issuer, []geo.STBox{res.Box}); lvl < k {
			return fmt.Errorf("HistoricalLevel=%d < k=%d for HK-anonymous box %v", lvl, k, res.Box)
		}
	}
	return nil
}

// CheckSession drives a whole generalization session over a trace and
// verifies the trace-level contract:
//
//   - every produced box encloses its request point and respects the
//     tolerance;
//   - the witness candidate set never grows along the trace;
//   - Def. 8 end to end: when every step reported HKAnonymity, the
//     issuer's request series achieves HistoricalLevel ≥ k against the
//     PHL database, and anon.SatisfiesHistoricalK concurs.
func CheckSession(p *Population, g *generalize.Generalizer, issuer phl.UserID, trace []geo.STPoint, sched generalize.DecaySchedule, tol generalize.Tolerance) error {
	if sched.Target < 1 {
		sched.Target = 1
	}
	sess := generalize.NewSession(g, issuer, sched)
	var boxes []geo.STBox
	allHK := true
	prev := map[phl.UserID]bool{}
	for step, q := range trace {
		res, ok := sess.Generalize(q, tol)
		if !ok {
			if step != 0 {
				return fmt.Errorf("step %d: Generalize failed after a successful first element", step)
			}
			return nil // not enough users: nothing further to check
		}
		if !res.Box.Valid() || !res.Box.Contains(q) {
			return fmt.Errorf("step %d: box %v does not enclose request point %v", step, res.Box, q)
		}
		if !allowsWithin(tol, res.Box) {
			return fmt.Errorf("step %d: box %v violates tolerance %v", step, res.Box, tol)
		}
		if step > 0 {
			for _, u := range res.Users {
				if !prev[u] {
					return fmt.Errorf("step %d: witness %v appeared mid-trace", step, u)
				}
			}
		}
		prev = userSet(res.Users)
		allHK = allHK && res.HKAnonymity
		boxes = append(boxes, res.Box)
	}
	if allHK && len(boxes) > 0 {
		lvl := anon.HistoricalLevel(p.Store, issuer, boxes)
		if lvl < sched.Target {
			return fmt.Errorf("HistoricalLevel=%d < k=%d over %d HK-anonymous boxes", lvl, sched.Target, len(boxes))
		}
		if !anon.SatisfiesHistoricalK(p.Store, issuer, boxes, sched.Target) {
			return fmt.Errorf("SatisfiesHistoricalK=false with HistoricalLevel=%d >= k=%d", lvl, sched.Target)
		}
	}
	return nil
}

// CheckKMonotone verifies that generalization is monotone in k under an
// unlimited tolerance: a larger k yields a (weakly) larger box and never
// a smaller anonymity set. g must have no randomizer (padding is
// deliberately non-monotone). Ties in witness distance could break
// monotonicity legitimately, but continuous populations make them a
// probability-zero event.
func CheckKMonotone(p *Population, q geo.STPoint, issuer phl.UserID, maxK int) error {
	g := p.Generalizer(0)
	prevCount := -1
	var prevBox geo.STBox
	havePrev := false
	failed := false
	for k := 1; k <= maxK; k++ {
		res, ok := g.FirstElement(q, issuer, k, generalize.Unlimited)
		if !ok {
			failed = true
			continue
		}
		if failed {
			return fmt.Errorf("k=%d succeeded after a smaller k failed", k)
		}
		count := len(anon.AnonymitySet(p.Store, res.Box))
		if count < prevCount {
			return fmt.Errorf("anonymity set shrank from %d to %d when k grew to %d", prevCount, count, k)
		}
		if havePrev && !res.Box.ContainsBox(prevBox) {
			return fmt.Errorf("box for k=%d does not contain the box for k=%d", k, k-1)
		}
		prevCount, prevBox, havePrev = count, res.Box, true
	}
	return nil
}

// CheckPseudonymRotation hammers one pseudonym manager from workers
// goroutines (disjoint user ranges, shared manager state) and verifies
// the unlinking contract of §6.3: a retired pseudonym is never reused —
// every pseudonym ever issued is globally unique — and every rotation
// is counted.
func CheckPseudonymRotation(users, rotations, workers int) error {
	if workers < 1 {
		workers = 1
	}
	m := pseudonym.NewManager()
	type mint struct {
		u phl.UserID
		p wire.Pseudonym
	}
	minted := make([][]mint, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for u := w; u < users; u += workers {
				id := phl.UserID(u)
				minted[w] = append(minted[w], mint{id, m.Current(id)})
				for r := 0; r < rotations; r++ {
					old, fresh := m.Rotate(id)
					if old == fresh {
						errs[w] = fmt.Errorf("Rotate(%v) returned the retired pseudonym %q as fresh", id, fresh)
						return
					}
					minted[w] = append(minted[w], mint{id, fresh})
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	owners := map[wire.Pseudonym]phl.UserID{}
	for _, batch := range minted {
		for _, mt := range batch {
			if prev, dup := owners[mt.p]; dup {
				return fmt.Errorf("pseudonym %q issued to both %v and %v", mt.p, prev, mt.u)
			}
			owners[mt.p] = mt.u
		}
	}
	for u := 0; u < users; u++ {
		if got := m.Rotations(phl.UserID(u)); got != rotations {
			return fmt.Errorf("Rotations(%d) = %d want %d", u, got, rotations)
		}
	}
	return nil
}

// CheckMixZonePlan verifies the on-demand mix-zone contract: a plan
// suppresses service exactly over [t, t+quiet], covers the request
// point, and mixes only distinct non-issuer participants.
func CheckMixZonePlan(p *Population, issuer phl.UserID, pt geo.Point, t int64, k int, od mixzone.OnDemand) error {
	plan, ok := od.Plan(p.Index, p.Store, issuer, pt, t, k, p.Metric)
	if !ok {
		if od.FallbackRadius > 0 {
			return fmt.Errorf("plan failed although the temporal-only fallback was enabled")
		}
		return nil
	}
	quiet := od.Quiet
	if quiet == 0 {
		quiet = mixzone.DefaultHorizon
	}
	if plan.Window.Start != t || plan.Window.End != t+quiet {
		return fmt.Errorf("window %v, want [%d,%d]", plan.Window, t, t+quiet)
	}
	if !plan.Area.Contains(pt) {
		return fmt.Errorf("zone %v does not cover the request point %v", plan.Area, pt)
	}
	if !plan.Suppresses(pt, t) {
		return fmt.Errorf("plan does not suppress the request that triggered it")
	}
	seen := map[phl.UserID]bool{}
	for _, u := range plan.Participants {
		if u == issuer {
			return fmt.Errorf("issuer %v listed as mix participant", issuer)
		}
		if seen[u] {
			return fmt.Errorf("participant %v listed twice", u)
		}
		seen[u] = true
	}
	return nil
}
