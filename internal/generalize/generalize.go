// Package generalize implements the paper's Algorithm 1: spatio-temporal
// generalization of a request so that the forwarded ⟨Area, TimeInterval⟩
// covers enough other users' trajectories to preserve Historical
// k-anonymity, subject to the service's tolerance constraints (§6.1–6.2).
//
// Two entry points mirror the two branches of Algorithm 1:
//
//   - FirstElement (lines 5–6): the request matches the initial element
//     of an LBQID; find the smallest 3D space around the exact request
//     point crossed by the trajectories of k−1 other users, and remember
//     those users.
//   - NextElement (lines 2–3): the request matches a later element; for
//     each remembered user take the PHL point closest to the request
//     point and enclose them all.
//
// Both branches then apply the tolerance check of lines 8–13: when the
// computed box exceeds the service's coarsest useful resolution it is
// uniformly reduced to fit and the HKAnonymity flag comes back false.
//
// Session layers the §6.2 refinement on top: start with k′ ≥ k candidate
// users and shrink the candidate set toward k along the trace ("the
// longer the trace, the less are the probabilities that the same k
// individuals will move along the same trace").
//
// Reading of "k trajectories": Definition 8 requires k−1 personal
// histories of users other than the issuer, so the issuer's own
// trajectory counts as one of Algorithm 1's k; the selection therefore
// picks k−1 other users.
package generalize

import (
	"fmt"
	"sort"

	"histanon/internal/geo"
	"histanon/internal/obs"
	"histanon/internal/phl"
	"histanon/internal/stindex"
)

// Tolerance is a service's coarsest acceptable spatial and temporal
// resolution (§6.1): "the coarsest spatial and temporal granularity for
// the service to still be useful". Zero fields mean unconstrained.
type Tolerance struct {
	// MaxWidth and MaxHeight bound the forwarded area in meters.
	MaxWidth, MaxHeight float64
	// MaxDuration bounds the forwarded time interval in seconds.
	MaxDuration int64
}

// Unlimited is the tolerance of a service that accepts any resolution.
var Unlimited = Tolerance{}

// Allows reports whether the box satisfies the tolerance constraints.
func (t Tolerance) Allows(b geo.STBox) bool {
	if t.MaxWidth > 0 && b.Area.Width() > t.MaxWidth {
		return false
	}
	if t.MaxHeight > 0 && b.Area.Height() > t.MaxHeight {
		return false
	}
	if t.MaxDuration > 0 && b.Time.Duration() > t.MaxDuration {
		return false
	}
	return true
}

// Clamp uniformly reduces the box about the anchor until it satisfies
// the constraints (Algorithm 1 line 12). An unconstrained dimension is
// left as it is.
func (t Tolerance) Clamp(b geo.STBox, anchor geo.STPoint) geo.STBox {
	maxW, maxH := b.Area.Width(), b.Area.Height()
	if t.MaxWidth > 0 {
		maxW = t.MaxWidth
	}
	if t.MaxHeight > 0 {
		maxH = t.MaxHeight
	}
	out := geo.STBox{Area: b.Area.ShrinkToward(anchor.P, maxW, maxH), Time: b.Time}
	if t.MaxDuration > 0 {
		out.Time = b.Time.ShrinkToward(anchor.T, t.MaxDuration)
	}
	return out
}

func (t Tolerance) String() string {
	return fmt.Sprintf("tol{%gx%gm, %ds}", t.MaxWidth, t.MaxHeight, t.MaxDuration)
}

// Result is the output of one generalization step (Algorithm 1's
// Output).
type Result struct {
	// Box is the ⟨Area, TimeInterval⟩ to forward to the service provider.
	Box geo.STBox
	// HKAnonymity is Algorithm 1's boolean: false when the tolerance
	// constraints forced the box below the anonymity-preserving size.
	HKAnonymity bool
	// Users are the selected witness users (set by FirstElement, echoed
	// and possibly narrowed by later steps).
	Users []phl.UserID
	// Points are the witness trajectory samples enclosed by the
	// pre-clamp box, aligned with Users.
	Points []geo.STPoint
}

// Generalizer runs Algorithm 1 against a PHL database. Index and Store
// must describe the same data: the index answers the k-nearest
// trajectory query, the store the per-user closest-point query.
type Generalizer struct {
	Index  stindex.Index
	Store  phl.Storer
	Metric geo.STMetric
	// Randomize, when non-nil, pads every produced box by bounded random
	// amounts to blunt inference attacks (§7); see Randomizer.
	Randomize *Randomizer
	// WitnessSamples, when > 1, hardens the boxes against
	// density-weighted (Bayesian) attackers: each witness contributes up
	// to this many of their nearest samples to the enclosing box instead
	// of one, so the issuer's own samples no longer dominate the box's
	// occupancy (see experiment E14). Costs resolution.
	WitnessSamples int
}

// FirstElement handles a request matching the initial element of an
// LBQID (Algorithm 1 lines 5–6 and 8–13): it selects the k−1 users,
// other than the issuer, whose trajectories pass closest to the exact
// request point q, and returns the smallest box containing q and one
// sample from each.
//
// ok is false when fewer than k−1 other users exist at all; no box is
// produced in that case.
func (g *Generalizer) FirstElement(q geo.STPoint, issuer phl.UserID, k int, tol Tolerance) (Result, bool) {
	return g.firstElement(q, issuer, k, tol, nil)
}

// firstElement is FirstElement lapping its three phases on lap, a
// request span that is nil unless the request is timed: the index
// query for witness trajectories (lines 5–6), the construction of the
// enclosing box (line 7 and the density balancing), and the tolerance
// check with its clamp and randomization (lines 8–13).
func (g *Generalizer) firstElement(q geo.STPoint, issuer phl.UserID, k int, tol Tolerance, lap *obs.Span) (Result, bool) {
	if k < 1 {
		return Result{}, false
	}
	lap.Sync()
	exclude := map[phl.UserID]bool{issuer: true}
	box, members, found := stindex.SmallestEnclosingBox(g.Index, q, k-1, g.Metric, exclude)
	lap.Mark(obs.StageKNN)
	if !found {
		return Result{}, false
	}
	res := Result{
		Box:         box,
		HKAnonymity: true,
		Users:       make([]phl.UserID, len(members)),
		Points:      make([]geo.STPoint, len(members)),
	}
	for i, m := range members {
		res.Users[i] = m.User
		res.Points[i] = m.Point
	}
	res.Box = g.balanceDensity(res.Box, q, res.Users)
	lap.Mark(obs.StageBox)
	if !tol.Allows(res.Box) {
		res.HKAnonymity = false
		res.Box = tol.Clamp(res.Box, q)
	}
	if g.Randomize != nil {
		res.Box = g.Randomize.Perturb(res.Box, tol)
	}
	lap.Mark(obs.StageTolerance)
	return res, true
}

// NextElement handles a request matching a non-initial element
// (Algorithm 1 lines 2–3 and 8–13): for each previously selected user it
// finds the PHL point closest to the exact request point q and encloses
// all of them together with q. Users with an empty history are dropped.
func (g *Generalizer) NextElement(q geo.STPoint, users []phl.UserID, tol Tolerance) Result {
	return g.nextElement(q, users, tol, nil)
}

// nextElement is NextElement lapping its phases on lap, as
// firstElement does. The per-witness closest-point lookups count as the
// KNN phase; box assembly and density balancing as the box phase.
func (g *Generalizer) nextElement(q geo.STPoint, users []phl.UserID, tol Tolerance, lap *obs.Span) Result {
	lap.Sync()
	res := Result{Box: geo.STBoxAround(q), HKAnonymity: true}
	for _, u := range users {
		p, _, ok := phl.Closest(g.Store, u, q, g.Metric)
		if !ok {
			continue
		}
		res.Users = append(res.Users, u)
		res.Points = append(res.Points, p)
		res.Box = res.Box.Extend(p)
	}
	lap.Mark(obs.StageKNN)
	res.Box = g.balanceDensity(res.Box, q, res.Users)
	lap.Mark(obs.StageBox)
	if !tol.Allows(res.Box) {
		res.HKAnonymity = false
		res.Box = tol.Clamp(res.Box, q)
	}
	if g.Randomize != nil {
		res.Box = g.Randomize.Perturb(res.Box, tol)
	}
	lap.Mark(obs.StageTolerance)
	return res
}

// DecaySchedule parameterizes the §6.2 refinement: the first element is
// generalized over Initial−1 other users and the candidate set shrinks
// by Step users per subsequent element, never below Target.
type DecaySchedule struct {
	// Target is the anonymity value k the user asked for.
	Target int
	// Initial is k′ ≥ Target used at the first element. Zero means
	// Target (no over-provisioning).
	Initial int
	// Step is how many candidates are shed per element. Zero means 1
	// when Initial > Target.
	Step int
}

// kAt returns the candidate-set size to use at trace step i (0-based).
func (d DecaySchedule) kAt(i int) int {
	initial := d.Initial
	if initial < d.Target {
		initial = d.Target
	}
	step := d.Step
	if step == 0 {
		step = 1
	}
	k := initial - i*step
	if k < d.Target {
		k = d.Target
	}
	return k
}

// Session generalizes the successive requests of one partially matched
// LBQID trace. It owns the witness-set bookkeeping: the users selected
// at the first element are the only candidates at later elements (a user
// added mid-trace would not be LT-consistent with the earlier boxes), and
// the set may shrink along the decay schedule, keeping the candidates
// whose trajectories stay closest to the trace.
type Session struct {
	g      *Generalizer
	sched  DecaySchedule
	issuer phl.UserID
	step   int
	users  []phl.UserID

	// Trace, when non-nil, is the span the next Generalize call laps
	// Algorithm 1's phases on (obs.StageKNN, StageBox, StageTolerance).
	// The caller sets it before each call: the trusted server sets the
	// request's span when the request is head-sampled, and nil
	// otherwise.
	Trace *obs.Span
}

// NewSession starts a trace-generalization session for one user and one
// LBQID match attempt.
func NewSession(g *Generalizer, issuer phl.UserID, sched DecaySchedule) *Session {
	if sched.Target < 1 {
		sched.Target = 1
	}
	return &Session{g: g, sched: sched, issuer: issuer}
}

// Step returns how many requests the session has generalized.
func (s *Session) Step() int { return s.step }

// Users returns the current witness candidate set.
func (s *Session) Users() []phl.UserID { return s.users }

// Generalize handles the next request of the trace. ok is false only on
// the first step, when the database does not hold enough other users.
func (s *Session) Generalize(q geo.STPoint, tol Tolerance) (Result, bool) {
	defer func() { s.step++ }()
	if s.step == 0 {
		res, ok := s.g.firstElement(q, s.issuer, s.sched.kAt(0), tol, s.Trace)
		if !ok {
			return Result{}, false
		}
		s.users = res.Users
		return res, true
	}

	// Narrow the candidate set along the decay schedule, preferring the
	// users whose closest sample is nearest to the current point.
	want := s.sched.kAt(s.step) - 1 // −1: the issuer is one of the k
	if want < len(s.users) {
		s.users = s.nearestSubset(q, want)
	}
	res := s.g.nextElement(q, s.users, tol, s.Trace)
	s.users = res.Users
	if len(s.users)+1 < s.sched.Target {
		// Witnesses fell below k (dropped empty histories): the box can
		// no longer certify historical k-anonymity.
		res.HKAnonymity = false
	}
	return res, true
}

// nearestSubset keeps the want candidates whose closest PHL sample to q
// is nearest under the metric.
func (s *Session) nearestSubset(q geo.STPoint, want int) []phl.UserID {
	type cand struct {
		u phl.UserID
		d float64
	}
	cands := make([]cand, 0, len(s.users))
	for _, u := range s.users {
		if _, d, ok := phl.Closest(s.g.Store, u, q, s.g.Metric); ok {
			cands = append(cands, cand{u, d})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].d < cands[j].d })
	if want < len(cands) {
		cands = cands[:want]
	}
	out := make([]phl.UserID, len(cands))
	for i, c := range cands {
		out[i] = c.u
	}
	return out
}

// balanceDensity grows the box to cover up to WitnessSamples nearest
// samples of every witness (see Generalizer.WitnessSamples). With the
// option off it is the identity.
func (g *Generalizer) balanceDensity(box geo.STBox, q geo.STPoint, users []phl.UserID) geo.STBox {
	if g.WitnessSamples <= 1 {
		return box
	}
	for _, u := range users {
		h := g.Store.History(u)
		if h == nil {
			continue
		}
		for _, p := range h.ClosestN(q, g.WitnessSamples, g.Metric) {
			box = box.Extend(p)
		}
	}
	return box
}
