// Package link implements the service-request linkability framework of
// the paper (§5.2): a function Link: R×R → [0,1] estimating the
// likelihood that two requests seen by a service provider were issued by
// the same user (Def. 4), and the induced link-connected sets at a
// threshold Θ (Def. 5).
//
// The paper assumes the trusted server "can replicate the techniques
// used by a possible attacker"; this package supplies those replicas:
// the trivial pseudonym linker and a multi-target-tracking linker in the
// spirit of Gruteser–Hoh (paper ref. [12]).
package link

import (
	"math"

	"histanon/internal/geo"
	"histanon/internal/wire"
)

// Func is a symmetric, reflexive linkability function over requests
// (paper Def. 4). Implementations must guarantee
// Likelihood(a,b) == Likelihood(b,a) and Likelihood(a,a) == 1.
type Func interface {
	Likelihood(a, b *wire.Request) float64
}

// Max combines linkers by taking the maximum likelihood — an attacker
// uses whichever technique links best.
type Max []Func

// Likelihood implements Func.
func (m Max) Likelihood(a, b *wire.Request) float64 {
	best := 0.0
	for _, f := range m {
		if l := f.Likelihood(a, b); l > best {
			best = l
			if best >= 1 {
				break
			}
		}
	}
	return best
}

// Pseudonym links two requests exactly when they carry the same
// pseudonym: the paper notes that "any two requests with the same
// UserPseudonym are clearly linkable" since pseudonyms are not shared.
type Pseudonym struct{}

// Likelihood implements Func.
func (Pseudonym) Likelihood(a, b *wire.Request) float64 {
	if a == b || a.Pseudonym == b.Pseudonym {
		return 1
	}
	return 0
}

// Tracking is a multi-target-tracking linker: it judges whether request
// b could plausibly continue the trajectory of request a (or vice
// versa) under a maximum-speed motion model, with confidence decaying
// over the time gap. It links across pseudonyms, which is exactly the
// attack that pseudonym changes alone do not stop.
type Tracking struct {
	// MaxSpeed is the fastest plausible user movement in m/s.
	// Zero means DefaultMaxSpeed.
	MaxSpeed float64
	// HalfLife is the time gap (seconds) at which tracking confidence
	// halves. Zero means DefaultHalfLife.
	HalfLife float64
}

// Default motion-model parameters: urban vehicle speed and a fifteen
// minute confidence half-life.
const (
	DefaultMaxSpeed = 17.0 // ~60 km/h
	DefaultHalfLife = 900.0
)

func (t Tracking) maxSpeed() float64 {
	if t.MaxSpeed == 0 {
		return DefaultMaxSpeed
	}
	return t.MaxSpeed
}

func (t Tracking) halfLife() float64 {
	if t.HalfLife == 0 {
		return DefaultHalfLife
	}
	return t.HalfLife
}

// Likelihood implements Func. The estimate is
//
//	reachability(a,b) × 2^(−gap/halfLife)
//
// where reachability is 1 when the spatial gap between the two request
// contexts is coverable at MaxSpeed within the temporal gap, decaying
// linearly to 0 at twice the coverable distance; overlapping contexts at
// overlapping times are fully reachable.
func (t Tracking) Likelihood(a, b *wire.Request) float64 {
	if a == b {
		return 1
	}
	// Temporal gap between the two context intervals (0 when they
	// overlap).
	var gap float64
	switch {
	case a.Context.Time.End < b.Context.Time.Start:
		gap = float64(b.Context.Time.Start - a.Context.Time.End)
	case b.Context.Time.End < a.Context.Time.Start:
		gap = float64(a.Context.Time.Start - b.Context.Time.End)
	}
	// Spatial gap between the two areas.
	dist := rectGap(a.Context.Area, b.Context.Area)

	reach := 1.0
	if dist > 0 {
		coverable := t.maxSpeed() * gap
		switch {
		case coverable <= 0:
			reach = 0
		case dist <= coverable:
			reach = 1
		case dist >= 2*coverable:
			reach = 0
		default:
			reach = 2 - dist/coverable
		}
	}
	decay := math.Exp2(-gap / t.halfLife())
	return reach * decay
}

// rectGap returns the minimum distance between two rectangles (0 when
// they intersect).
func rectGap(a, b geo.Rect) float64 {
	dx := math.Max(0, math.Max(b.MinX-a.MaxX, a.MinX-b.MaxX))
	dy := math.Max(0, math.Max(b.MinY-a.MaxY, a.MinY-b.MaxY))
	return math.Hypot(dx, dy)
}

// IsLinkConnected reports whether the request set R' is link-connected
// with likelihood theta (paper Def. 5): every pair must be joined by a
// chain inside R' whose consecutive links all have likelihood >= theta.
func IsLinkConnected(set []*wire.Request, f Func, theta float64) bool {
	n := len(set)
	if n <= 1 {
		return true
	}
	uf := newUnionFind(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if f.Likelihood(set[i], set[j]) >= theta {
				uf.union(i, j)
			}
		}
	}
	root := uf.find(0)
	for i := 1; i < n; i++ {
		if uf.find(i) != root {
			return false
		}
	}
	return true
}

// MaxPairLikelihood returns the largest cross-pair likelihood between
// two request sets — the measure the Unlinking action of §6.3 must push
// below Θ.
func MaxPairLikelihood(a, b []*wire.Request, f Func) float64 {
	best := 0.0
	for _, ra := range a {
		for _, rb := range b {
			if l := f.Likelihood(ra, rb); l > best {
				best = l
			}
		}
	}
	return best
}

// RotationLikelihoods measures how well f links each user's pseudonyms
// across a rotation (§5.2). byUser holds each user's requests in time
// order. At every pseudonym change it returns f's MaxPairLikelihood
// between the last ≤w requests under the old pseudonym and the first
// ≤w under the new one; a segment shorter than w lends no requests of
// its neighbours to the window. Values come in order of byUser and of
// time, and with limit > 0 at most limit of them. No pseudonym change
// gives none.
func RotationLikelihoods(byUser [][]*wire.Request, w, limit int, f Func) []float64 {
	var out []float64
	for _, reqs := range byUser {
		for j := 1; j < len(reqs); j++ {
			old, cur := reqs[j-1].Pseudonym, reqs[j].Pseudonym
			if cur == old {
				continue
			}
			if limit > 0 && len(out) == limit {
				return out
			}
			lo, hi := j-1, j+1
			for lo > 0 && j-lo < w && reqs[lo-1].Pseudonym == old {
				lo--
			}
			for hi < len(reqs) && hi-j < w && reqs[hi].Pseudonym == cur {
				hi++
			}
			out = append(out, MaxPairLikelihood(reqs[lo:j], reqs[j:hi], f))
		}
	}
	return out
}

type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}
