package check

import (
	"fmt"
	"math/rand"
	"sort"

	"histanon/internal/anon"
	"histanon/internal/generalize"
	"histanon/internal/geo"
	"histanon/internal/mixzone"
	"histanon/internal/phl"
	"histanon/internal/stindex"
	"histanon/internal/storage"
)

// StorageOracle drives one seeded workload through two PHL views that
// Algorithm 1 must not be able to tell apart: an all-hot in-memory
// store paired with a grid index, and a durable TieredStore over a
// crash-simulating MemFS with demotion tuned so most of the history
// lives in cold on-disk runs. Midway through ingestion the tiered
// store is closed and recovered from its snapshot chain and WAL tail,
// so every oracle run also certifies that recovery is observationally
// lossless. Check then cross-examines the two views: per-user
// histories, box and KNN queries, LT-consistency, HistoricalLevel,
// whole Algorithm 1 generalizations (first and later elements, decaying
// sessions) and on-demand mix-zone plans must agree byte for byte.
type StorageOracle struct {
	Cfg PopulationConfig
	// Hot is the baseline view: phl.Store plus stindex grid.
	Hot *Population
	// Tiered is the view under test; Store and Index are both the
	// TieredStore (the ts.Server wiring when Config.Index is nil).
	Tiered *Population
	// FS is the simulated disk under the tiered store.
	FS *storage.MemFS

	store *storage.TieredStore
	rng   *rand.Rand
	divs  []Divergence
	// leg names the view under test in divergences ("tiered" when
	// empty).
	leg string
}

// storageOracleOptions returns the aggressive demotion configuration:
// frequent snapshots, a hot window far shorter than the workload's
// time span, a short compaction chain and a cold cache small enough to
// miss. The store's hot grid has the serving geometry, as the memory
// leg's grid does, so decision legs compare like with like.
func storageOracleOptions(fsys storage.FS, span int64) storage.Options {
	return storage.Options{
		Dir:              "oracle",
		FS:               fsys,
		SnapshotEvery:    24,
		HotWindow:        span / 16,
		MaxDeltas:        3,
		ColdCacheEntries: 4,
	}
}

// NewStorageOracle builds both views from cfg's seed and ingests the
// same interleaved workload into each, restarting the tiered store
// from disk halfway through. Trajectories are the same random walks
// NewPopulation uses, but records are replayed in global time order so
// the demotion watermark sweeps past every user's early samples.
func NewStorageOracle(cfg PopulationConfig) (*StorageOracle, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	recs := oracleStream(cfg, rng)

	metric := geo.STMetric{TimeScale: cfg.TimeScale}
	o := &StorageOracle{
		Cfg: cfg,
		Hot: &Population{
			Cfg:    cfg,
			Store:  phl.NewStore(),
			Index:  stindex.NewGrid(stindex.ServingCell, stindex.ServingBucket),
			Metric: metric,
			Rng:    rng,
		},
		FS:  storage.NewMemFS(),
		rng: rng,
	}
	opts := storageOracleOptions(o.FS, cfg.TimeSpan)
	st, _, err := storage.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("open tiered store: %w", err)
	}
	o.store = st
	o.Tiered = &Population{Cfg: cfg, Store: st, Index: st, Metric: metric, Rng: rng}

	for i, r := range recs {
		o.Hot.Record(r.User, r.Point)
		o.Tiered.Record(r.User, r.Point)
		if i == len(recs)/2 {
			// Clean restart mid-workload: recovery must hand back the
			// exact same observable PHL before ingestion continues.
			if err := o.store.Close(); err != nil {
				return nil, fmt.Errorf("close tiered store: %w", err)
			}
			st, _, err := storage.Open(opts)
			if err != nil {
				return nil, fmt.Errorf("recover tiered store: %w", err)
			}
			o.store = st
			o.Tiered.Store, o.Tiered.Index = st, st
		}
	}
	return o, nil
}

// oracleStream draws the oracle's ingestion stream from rng: the same
// random walks NewPopulation uses, replayed in global time order.
// cfg must have its defaults applied.
func oracleStream(cfg PopulationConfig, rng *rand.Rand) []phl.Sample {
	var recs []phl.Sample
	half := cfg.Extent / 2
	step := cfg.Extent / 20
	for u := 0; u < cfg.Users; u++ {
		pos := geo.Point{X: rng.Float64()*cfg.Extent - half, Y: rng.Float64()*cfg.Extent - half}
		for i := 0; i < cfg.SamplesPerUser; i++ {
			pos.X = clamp(pos.X+rng.NormFloat64()*step, -half, half)
			pos.Y = clamp(pos.Y+rng.NormFloat64()*step, -half, half)
			t := int64(float64(cfg.TimeSpan) * (float64(i) + rng.Float64()) / float64(cfg.SamplesPerUser))
			recs = append(recs, phl.Sample{User: phl.UserID(u), Point: geo.STPoint{P: pos, T: t}})
		}
	}
	// Stable by time: per-user order (already time-sorted) survives,
	// the global stream becomes time-monotone.
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Point.T < recs[j].Point.T })
	return recs
}

// Store returns the live TieredStore under test (it changes identity
// across the mid-workload restart).
func (o *StorageOracle) Store() *storage.TieredStore { return o.store }

// Close releases the tiered store's file handles.
func (o *StorageOracle) Close() error { return o.store.Close() }

func (o *StorageOracle) fail(kind string, q int, format string, args ...any) {
	leg := o.leg
	if leg == "" {
		leg = "tiered"
	}
	o.divs = append(o.divs, Divergence{Index: leg, Kind: kind, Query: q,
		Detail: fmt.Sprintf(format, args...)})
}

// randomBox derives a random spatio-temporal box over the populated
// region; roughly half the boxes are narrow enough to be selective.
func (o *StorageOracle) randomBox() geo.STBox {
	half := o.Cfg.Extent / 2
	w := o.Cfg.Extent * (0.05 + 0.45*o.rng.Float64())
	h := o.Cfg.Extent * (0.05 + 0.45*o.rng.Float64())
	cx := o.rng.Float64()*o.Cfg.Extent - half
	cy := o.rng.Float64()*o.Cfg.Extent - half
	t0 := int64(o.rng.Float64() * float64(o.Cfg.TimeSpan))
	dt := 1 + int64(o.rng.Float64()*float64(o.Cfg.TimeSpan)/4)
	return geo.STBox{
		Area: geo.Rect{MinX: cx - w/2, MinY: cy - h/2, MaxX: cx + w/2, MaxY: cy + h/2},
		Time: geo.Interval{Start: t0, End: t0 + dt},
	}
}

func sortedUsers(ids []phl.UserID) []phl.UserID {
	out := append([]phl.UserID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalUsers(a, b []phl.UserID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalPoints(a, b []geo.STPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Check runs every cross-examination and returns the divergences; an
// empty slice means the tiered store is observationally identical to
// the all-hot baseline. queries sizes the randomized probe mix.
func (o *StorageOracle) Check(queries int) []Divergence {
	o.divs = nil
	faults0 := o.store.StorageFaults()
	o.checkVacuity()
	o.checkHistories()
	for qi := 0; qi < queries; qi++ {
		o.checkBoxQuery(qi)
		o.checkKNNQuery(qi)
		o.checkHistoricalLevel(qi)
	}
	o.checkGeneralizations(queries)
	o.checkLaterElements(queries)
	// The probes above all ran against a healthy disk: any fault
	// counted during them is a cold-path defect, not an injection.
	if moved := o.store.StorageFaults() - faults0; moved != 0 {
		o.fail("faults", -1, "healthy probes counted %d storage faults", moved)
	}
	return o.divs
}

// checkVacuity guards the oracle itself: if demotion never happened
// the run compared an all-hot store against an all-hot store and
// proved nothing.
func (o *StorageOracle) checkVacuity() {
	st := o.store.Stats()
	if st.DemotedSamples == 0 || st.ColdSamples == 0 {
		o.fail("vacuous", -1,
			"no samples demoted (demoted=%d cold=%d): the oracle run exercises no cold path",
			st.DemotedSamples, st.ColdSamples)
	}
}

// checkHistories compares the full PHL: user enumeration order and
// every sample of every per-user history, byte for byte.
func (o *StorageOracle) checkHistories() {
	hu, tu := o.Hot.Store.Users(), o.Tiered.Store.Users()
	if !equalUsers(hu, tu) {
		o.fail("users", -1, "user enumeration differs: hot %v, tiered %v", hu, tu)
		return
	}
	if h, t := o.Hot.Store.NumSamples(), o.Tiered.Store.NumSamples(); h != t {
		o.fail("samples", -1, "NumSamples: hot %d, tiered %d", h, t)
	}
	for _, u := range hu {
		hp := o.Hot.Store.History(u).Points()
		tp := o.Tiered.Store.History(u).Points()
		if !equalPoints(hp, tp) {
			o.fail("history", -1, "history of %v differs: hot %d pts %v, tiered %d pts %v",
				u, len(hp), hp, len(tp), tp)
		}
	}
}

// checkBoxQuery compares the store-level and index-level box queries
// plus LT-consistency over a random box chain.
func (o *StorageOracle) checkBoxQuery(qi int) {
	b := o.randomBox()
	if h, t := sortedUsers(o.Hot.Store.UsersIn(b)), sortedUsers(o.Tiered.Store.UsersIn(b)); !equalUsers(h, t) {
		o.fail("box-users", qi, "UsersIn(%v): hot %v, tiered %v", b, h, t)
	}
	if h, t := o.Hot.Store.CountUsersIn(b), o.Tiered.Store.CountUsersIn(b); h != t {
		o.fail("box-count", qi, "CountUsersIn(%v): hot %d, tiered %d", b, h, t)
	}
	if h, t := sortedUsers(o.Hot.Index.UsersInBox(b)), sortedUsers(o.Tiered.Index.UsersInBox(b)); !equalUsers(h, t) {
		o.fail("index-box-users", qi, "UsersInBox(%v): hot %v, tiered %v", b, h, t)
	}
	if h, t := o.Hot.Index.CountUsersInBox(b), o.Tiered.Index.CountUsersInBox(b); h != t {
		o.fail("index-box-count", qi, "CountUsersInBox(%v): hot %d, tiered %d", b, h, t)
	}
	chain := []geo.STBox{b}
	for o.rng.Intn(2) == 0 && len(chain) < 4 {
		chain = append(chain, o.randomBox())
	}
	h := sortedUsers(o.Hot.Store.LTConsistentUsers(chain))
	t := sortedUsers(o.Tiered.Store.LTConsistentUsers(chain))
	if !equalUsers(h, t) {
		o.fail("lt-consistent", qi, "LTConsistentUsers(%d boxes): hot %v, tiered %v", len(chain), h, t)
	}
}

// checkKNNQuery compares KNearestUsers answers — user identity, the
// witness sample and its distance. Coordinates are continuous, so
// exact distance ties (the one case the tiered KNN may legitimately
// reorder) have probability zero.
func (o *StorageOracle) checkKNNQuery(qi int) {
	q := o.Hot.RandomQuery()
	k := 1 + o.rng.Intn(o.Cfg.Users+1)
	var exclude map[phl.UserID]bool
	if o.rng.Intn(2) == 0 {
		exclude = map[phl.UserID]bool{phl.UserID(o.rng.Intn(o.Cfg.Users)): true}
	}
	h := o.Hot.Index.KNearestUsers(q, k, o.Hot.Metric, exclude)
	t := o.Tiered.Index.KNearestUsers(q, k, o.Tiered.Metric, exclude)
	if len(h) != len(t) {
		o.fail("knn-len", qi, "KNearestUsers(%v, k=%d): hot %d results, tiered %d", q, k, len(h), len(t))
		return
	}
	for i := range h {
		if h[i].User != t[i].User || h[i].Point != t[i].Point {
			o.fail("knn", qi, "KNearestUsers(%v, k=%d)[%d]: hot %v@%v, tiered %v@%v",
				q, k, i, h[i].User, h[i].Point, t[i].User, t[i].Point)
		}
	}
}

// checkHistoricalLevel compares Def. 8's level for a random issuer
// over a random request-context chain — the quantity the tiered
// store's cold tier must never inflate or deflate.
func (o *StorageOracle) checkHistoricalLevel(qi int) {
	issuer := phl.UserID(o.rng.Intn(o.Cfg.Users))
	boxes := []geo.STBox{o.randomBox()}
	for o.rng.Intn(2) == 0 && len(boxes) < 4 {
		boxes = append(boxes, o.randomBox())
	}
	h := anon.HistoricalLevel(o.Hot.Store, issuer, boxes)
	t := anon.HistoricalLevel(o.Tiered.Store, issuer, boxes)
	if h != t {
		o.fail("historical-level", qi,
			"HistoricalLevel(%v, %d boxes): hot %d, tiered %d", issuer, len(boxes), h, t)
	}
}

// checkGeneralizations runs whole Algorithm 1 invocations against both
// views — same query, issuer, k, tolerance and randomizer stream — and
// demands identical Results: box, witnesses, witness samples and the
// HK-anonymity verdict.
func (o *StorageOracle) checkGeneralizations(n int) {
	// Identical non-zero seeds: both randomizers advance in lockstep.
	rseed := o.Cfg.Seed*2 + 1
	gh := o.Hot.Generalizer(rseed)
	gt := o.Tiered.Generalizer(rseed)
	for qi := 0; qi < n; qi++ {
		q := o.Hot.RandomQuery()
		issuer := phl.UserID(o.rng.Intn(o.Cfg.Users))
		k := 1 + o.rng.Intn(o.Cfg.Users+1)
		tol := o.randomTolerance()
		rh, okh := gh.FirstElement(q, issuer, k, tol)
		rt, okt := gt.FirstElement(q, issuer, k, tol)
		if okh != okt {
			o.fail("gen-ok", qi, "FirstElement(%v, k=%d) ok: hot %v, tiered %v", q, k, okh, okt)
			continue
		}
		if okh {
			o.sameResult("gen", qi, fmt.Sprintf("FirstElement(%v, k=%d)", q, k), rh, rt)
		}
	}
}

// sameResult demands identical generalization Results from the two
// views: box, HK-anonymity verdict, witnesses and witness samples.
func (o *StorageOracle) sameResult(kind string, qi int, call string, rh, rt generalize.Result) {
	if rh.Box != rt.Box {
		o.fail(kind+"-box", qi, "%s box: hot %v, tiered %v", call, rh.Box, rt.Box)
	}
	if rh.HKAnonymity != rt.HKAnonymity {
		o.fail(kind+"-hk", qi, "%s HKAnonymity: hot %v, tiered %v", call, rh.HKAnonymity, rt.HKAnonymity)
	}
	if !equalUsers(rh.Users, rt.Users) {
		o.fail(kind+"-witnesses", qi, "%s witnesses: hot %v, tiered %v", call, rh.Users, rt.Users)
	}
	if !equalPoints(rh.Points, rt.Points) {
		o.fail(kind+"-points", qi, "%s witness samples: hot %v, tiered %v", call, rh.Points, rt.Points)
	}
}

// randomTolerance is unlimited two times in three, else a quarter of
// the extent and time span.
func (o *StorageOracle) randomTolerance() generalize.Tolerance {
	if o.rng.Intn(3) != 0 {
		return generalize.Unlimited
	}
	return generalize.Tolerance{
		MaxWidth:    o.Cfg.Extent / 4,
		MaxHeight:   o.Cfg.Extent / 4,
		MaxDuration: o.Cfg.TimeSpan / 4,
	}
}

// laterQuery is a query point for the closest-sample lookups: half of
// them uniform over the time span, so mostly historical, and half in
// the last 32nd of it, past the tiered store's cut, where the store
// answers from memory when time rules its cold tier out.
func (o *StorageOracle) laterQuery() geo.STPoint {
	q := o.Hot.RandomQuery()
	if o.rng.Intn(2) == 0 {
		q.T = o.Cfg.TimeSpan - o.rng.Int63n(o.Cfg.TimeSpan/32+1)
	}
	return q
}

// checkLaterElements runs every call that reads one closest sample per
// user against both views and demands identical answers: Algorithm 1's
// later elements (NextElement over random witnesses), a decaying
// Session whose later steps narrow its witnesses by those distances,
// and on-demand mix-zone planning. A plan's participants and fallback
// flag are FindDiverging's answer, and its area the participants'
// closest samples.
func (o *StorageOracle) checkLaterElements(n int) {
	rseed := o.Cfg.Seed*2 + 3
	gh, gt := o.Hot.Generalizer(rseed), o.Tiered.Generalizer(rseed)
	od := mixzone.OnDemand{
		Quiet:          300,
		Margin:         25,
		Divergence:     mixzone.Divergence{MinAngle: 0.3},
		FallbackRadius: 100,
	}
	for qi := 0; qi < n; qi++ {
		q := o.laterQuery()
		issuer := phl.UserID(o.rng.Intn(o.Cfg.Users))
		k := 2 + o.rng.Intn(4)
		tol := o.randomTolerance()

		var witnesses []phl.UserID
		for _, u := range o.rng.Perm(o.Cfg.Users)[:min(k, o.Cfg.Users)] {
			if phl.UserID(u) != issuer {
				witnesses = append(witnesses, phl.UserID(u))
			}
		}
		o.sameResult("next", qi, fmt.Sprintf("NextElement(%v, %v)", q, witnesses),
			gh.NextElement(q, witnesses, tol), gt.NextElement(q, witnesses, tol))

		sched := generalize.DecaySchedule{Target: k, Initial: k + 3}
		sh := generalize.NewSession(gh, issuer, sched)
		st := generalize.NewSession(gt, issuer, sched)
		p := q
		for step := 0; step < 4; step++ {
			rh, okh := sh.Generalize(p, tol)
			rt, okt := st.Generalize(p, tol)
			if okh != okt {
				o.fail("session-ok", qi, "Session step %d at %v ok: hot %v, tiered %v", step, p, okh, okt)
				break
			}
			if !okh {
				break
			}
			o.sameResult("session", qi, fmt.Sprintf("Session step %d at %v", step, p), rh, rt)
			p = o.Hot.RandomQuery()
			p.T = q.T + int64(step+1)*o.Cfg.TimeSpan/64
		}

		ph, okh := od.Plan(o.Hot.Index, o.Hot.Store, issuer, q.P, q.T, k, o.Hot.Metric)
		pt, okt := od.Plan(o.Tiered.Index, o.Tiered.Store, issuer, q.P, q.T, k, o.Tiered.Metric)
		if okh != okt || ph.Area != pt.Area || ph.Window != pt.Window ||
			ph.Fallback != pt.Fallback || !equalUsers(ph.Participants, pt.Participants) {
			o.fail("plan", qi, "Plan(%v, k=%d): hot %+v %v, tiered %+v %v", q, k, ph, okh, pt, okt)
		}
	}
}

// RunStorageDifferential is the one-call form: build the twin views
// for cfg, cross-examine them with the given number of randomized
// probes, and return all divergences. An empty slice means the tiered
// store — including its mid-workload crash recovery — answered every
// probe exactly like the all-hot baseline.
func RunStorageDifferential(cfg PopulationConfig, queries int) ([]Divergence, error) {
	o, err := NewStorageOracle(cfg)
	if err != nil {
		return nil, err
	}
	defer o.Close()
	return o.Check(queries), nil
}
