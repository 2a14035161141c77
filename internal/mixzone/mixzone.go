// Package mixzone implements the unlinking machinery of the paper's
// §6.3. A mix zone (Beresford–Stajano, paper refs. [1,2]) is a spatial
// area such that an individual crossing it cannot have their positions
// after the crossing linked to positions before it; the trusted server
// changes the user's pseudonym inside the zone.
//
// The paper extends the idea with *on-demand* mix zones: "temporarily
// disabling the use of the service for a number of users in the same
// area for the time sufficient to confuse the SP", formalized as
// "finding, given a specific point in space, k diverging trajectories
// (each one for a different user) that are sufficiently close to the
// point". This package provides both the static-zone registry and the
// diverging-trajectory search.
package mixzone

import (
	"math"

	"histanon/internal/geo"
	"histanon/internal/phl"
	"histanon/internal/stindex"
)

// Zone is a static mix zone: inside it no service is delivered and
// pseudonyms may be rotated safely.
type Zone struct {
	// Name labels the zone.
	Name string
	// Area is the zone's spatial extent.
	Area geo.Rect
	// MinDwell is the minimum time (seconds) a user must spend inside the
	// zone for the crossing to count as a mixing opportunity.
	MinDwell int64
}

// Registry holds the static mix zones of a deployment area.
type Registry struct {
	zones []Zone
}

// NewRegistry returns a registry over the given zones.
func NewRegistry(zones ...Zone) *Registry {
	return &Registry{zones: append([]Zone(nil), zones...)}
}

// Add registers another zone.
func (r *Registry) Add(z Zone) { r.zones = append(r.zones, z) }

// Zones returns the registered zones.
func (r *Registry) Zones() []Zone { return r.zones }

// ZoneAt returns the first zone containing p, if any.
func (r *Registry) ZoneAt(p geo.Point) (Zone, bool) {
	for _, z := range r.zones {
		if z.Area.Contains(p) {
			return z, true
		}
	}
	return Zone{}, false
}

// CrossedZone reports whether the trajectory segment of a user's recent
// history shows a qualifying crossing of some zone ending at or before
// now: the user entered a zone and dwelt at least MinDwell.
func (r *Registry) CrossedZone(h *phl.History, since, now int64) (Zone, bool) {
	if h == nil {
		return Zone{}, false
	}
	pts := h.In(geo.STBox{
		Area: geo.Rect{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)},
		Time: geo.Interval{Start: since, End: now},
	})
	for _, z := range r.zones {
		var first, last int64 = -1, -1
		for _, p := range pts {
			if z.Area.Contains(p.P) {
				if first < 0 {
					first = p.T
				}
				last = p.T
			}
		}
		if first >= 0 && last-first >= z.MinDwell {
			return z, true
		}
	}
	return Zone{}, false
}

// Divergence measures how differently a set of users move away from a
// point: the minimum pairwise angular separation (radians) of their
// forward headings over the horizon following t.
type Divergence struct {
	// Horizon is how far ahead (seconds) headings are estimated.
	// Zero means DefaultHorizon.
	Horizon int64
	// MinAngle is the pairwise angular separation (radians) required for
	// two trajectories to count as diverging. Zero means DefaultMinAngle.
	MinAngle float64
}

// Defaults for the divergence test: ten-minute horizon and 45° pairwise
// separation.
const (
	DefaultHorizon  = int64(600)
	DefaultMinAngle = math.Pi / 4
)

func (d Divergence) horizon() int64 {
	if d.Horizon == 0 {
		return DefaultHorizon
	}
	return d.Horizon
}

func (d Divergence) minAngle() float64 {
	if d.MinAngle == 0 {
		return DefaultMinAngle
	}
	return d.MinAngle
}

// heading estimates the user's direction of travel right after t: the
// vector from their position at (or just before) t to their position one
// horizon later. ok is false when the history has no samples on both
// sides or the user does not move.
func (d Divergence) heading(store phl.Storer, u phl.UserID, t int64) (float64, bool) {
	from, _, ok := phl.Closest(store, u, geo.STPoint{T: t}, onlyTimeMetric())
	if !ok {
		return 0, false
	}
	to, _, ok := phl.Closest(store, u, geo.STPoint{T: t + d.horizon()}, onlyTimeMetric())
	if !ok || to.T <= from.T {
		return 0, false
	}
	v := to.P.Sub(from.P)
	if v.Norm() < 1e-9 {
		return 0, false
	}
	return v.Heading(), true
}

// onlyTimeMetric makes History.Closest a pure nearest-in-time lookup.
func onlyTimeMetric() geo.STMetric { return geo.STMetric{TimeScale: 1e12} }

// FindDiverging searches for k users, other than the issuer, whose
// trajectories pass close to the point p around time t and then head in
// pairwise-diverging directions — the candidates for an on-demand mix
// zone. Users are considered in order of trajectory distance from
// ⟨p,t⟩; a greedy pass keeps those whose heading differs from every kept
// heading by at least MinAngle. ok is false when fewer than k diverging
// users are found among the nearest candidates.
func FindDiverging(idx stindex.Index, store phl.Storer, issuer phl.UserID,
	p geo.Point, t int64, k int, d Divergence, m geo.STMetric) ([]phl.UserID, bool) {
	if k <= 0 {
		return nil, true
	}
	// Over-fetch: divergence rejects some near users.
	fetch := 4*k + 8
	cands := idx.KNearestUsers(geo.STPoint{P: p, T: t}, fetch, m, map[phl.UserID]bool{issuer: true})
	var kept []phl.UserID
	var headings []float64
	for _, c := range cands {
		hd, ok := d.heading(store, c.User, t)
		if !ok {
			continue
		}
		diverges := true
		for _, other := range headings {
			if angleDiff(hd, other) < d.minAngle() {
				diverges = false
				break
			}
		}
		if diverges {
			kept = append(kept, c.User)
			headings = append(headings, hd)
			if len(kept) == k {
				return kept, true
			}
		}
	}
	return kept, false
}

// angleDiff returns the absolute angular separation in [0, pi].
func angleDiff(a, b float64) float64 {
	d := math.Mod(math.Abs(a-b), 2*math.Pi)
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}

// OnDemand plans an on-demand mix zone around a point: the area covering
// the diverging users' positions, expanded by Margin, and the service
// suppression window [t, t+Quiet].
type OnDemand struct {
	// Quiet is how long (seconds) service is suppressed inside the zone.
	Quiet int64
	// Margin expands the zone area beyond the participants' positions.
	Margin float64
	// Divergence configures the trajectory test.
	Divergence Divergence
	// FallbackRadius, when positive, enables temporal-only mixing when
	// too few diverging users are found: the zone becomes a square of
	// this half-width around the issuer, suppressed for Quiet seconds —
	// "temporarily disabling the use of the service ... for the time
	// sufficient to confuse the SP" (§6.3) even without ideal
	// trajectory divergence. The quiet gap alone decays tracking
	// confidence; the radius bounds where the user may re-emerge.
	FallbackRadius float64
}

// Plan is a scheduled on-demand mix zone.
type Plan struct {
	// Area is the zone's extent.
	Area geo.Rect
	// Window is the suppression interval.
	Window geo.Interval
	// Participants are the users mixed inside the zone (the issuer is
	// added by the caller).
	Participants []phl.UserID
	// Fallback marks a temporal-only plan formed via FallbackRadius
	// because too few diverging users were available. Fallback zones
	// give weaker mixing guarantees, so the audit log distinguishes
	// them from trajectory-diverging zones.
	Fallback bool
}

// Plan computes an on-demand mix zone for the issuer at ⟨p,t⟩ with k
// fellow participants. ok is false when not enough diverging users are
// available; the zone cannot be formed and the caller should fall back
// to notifying the user (paper §6.1 step 2).
func (o OnDemand) Plan(idx stindex.Index, store phl.Storer, issuer phl.UserID,
	p geo.Point, t int64, k int, m geo.STMetric) (Plan, bool) {
	users, ok := FindDiverging(idx, store, issuer, p, t, k, o.Divergence, m)
	quiet := o.Quiet
	if quiet == 0 {
		quiet = DefaultHorizon
	}
	if !ok {
		if o.FallbackRadius <= 0 {
			return Plan{}, false
		}
		return Plan{
			Area:         geo.RectAround(p).Expand(o.FallbackRadius),
			Window:       geo.Interval{Start: t, End: t + quiet},
			Participants: users,
			Fallback:     true,
		}, true
	}
	area := geo.RectAround(p)
	for _, u := range users {
		if pt, _, found := phl.Closest(store, u, geo.STPoint{P: p, T: t}, m); found {
			area = area.Extend(pt.P)
		}
	}
	return Plan{
		Area:         area.Expand(o.Margin),
		Window:       geo.Interval{Start: t, End: t + quiet},
		Participants: users,
	}, true
}

// Suppresses reports whether the plan suppresses service for a request
// at ⟨p,t⟩.
func (pl Plan) Suppresses(p geo.Point, t int64) bool {
	return pl.Window.Contains(t) && pl.Area.Contains(p)
}
