// Package phl implements the Personal History of Locations (paper
// Def. 6): the per-user sequence of location updates stored by the
// trusted server, together with the location-time consistency relation
// (Def. 7) that historical k-anonymity is defined on.
package phl

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"histanon/internal/geo"
)

// UserID identifies a real user inside the trusted server. Pseudonyms,
// which identify users toward service providers, live in the pseudonym
// package.
type UserID int64

// History is one user's Personal History of Locations: location samples
// ordered by time.
//
// Stores hand out read-only views (View), never the History they keep
// appending to. A view holds the samples present when it was taken, and
// later Appends never write anything a view can see, so a view may be
// read while the store keeps recording. The owner must not run Append
// concurrently with View or with another Append; any number of View
// calls and view reads may run together (a store's write and read locks
// give exactly this).
type History struct {
	pts  []geo.STPoint // sorted by T, ties kept in insertion order
	last int64         // pts[len(pts)-1].T when pts is non-empty

	view   atomic.Pointer[History] // view of pts handed out since the last Append
	shared bool                    // a view taken before the last Append may see pts' array
}

// Len returns the number of samples.
func (h *History) Len() int { return len(h.pts) }

// Append adds a sample. Samples usually arrive in time order; an
// out-of-order sample is inserted at its sorted position. The insert
// shifts samples in place unless a view may see them; then it goes into
// a fresh array of the same capacity. A full array moves to a fresh one
// of grow(n) samples. Fresh arrays are rounded up to the allocator's
// size class.
func (h *History) Append(p geo.STPoint) {
	if h.view.Load() != nil {
		h.view.Store(nil)
		h.shared = true
	}
	n := len(h.pts)
	i := n // p's sorted position: after every sample at or before p.T
	if n == 0 || h.last <= p.T {
		h.last = p.T
	} else {
		i = sort.Search(n, func(i int) bool { return h.pts[i].T > p.T })
	}
	if c := cap(h.pts); n == c || (i < n && h.shared) {
		if n == c {
			c = grow(n)
		}
		pts := slices.Grow([]geo.STPoint(nil), c)[:n+1]
		copy(pts, h.pts[:i])
		copy(pts[i+1:], h.pts[i:])
		h.pts, h.shared = pts, false // no view has seen the new array
	} else {
		h.pts = h.pts[:n+1]
		copy(h.pts[i+1:], h.pts[i:n])
	}
	h.pts[i] = p
}

// grow returns the capacity a full array of n samples moves to: double
// while it is small, then add max(32, n/8) samples, so a long history
// carries about an eighth of its length as slack (plus the allocator's
// rounding), where append's doubling leaves up to its whole length.
func grow(n int) int {
	return n + max(1, min(n, max(32, n/8)))
}

// View returns a read-only History holding h's current samples. It
// shares h's array without copying, and later Appends to h never change
// what it holds. Views are cached: calls between two Appends return the
// same one.
func (h *History) View() *History {
	if v := h.view.Load(); v != nil {
		return v
	}
	n := len(h.pts)
	v := &History{pts: h.pts[:n:n], last: h.last}
	if h.view.CompareAndSwap(nil, v) {
		return v
	}
	return h.view.Load()
}

// At returns the i-th sample in time order.
func (h *History) At(i int) geo.STPoint { return h.pts[i] }

// Points returns the samples in time order. The slice is shared; callers
// must not modify it.
func (h *History) Points() []geo.STPoint { return h.pts }

// timeRange returns the index range [lo,hi) of samples with
// T in [start, end].
func (h *History) timeRange(start, end int64) (int, int) {
	lo := sort.Search(len(h.pts), func(i int) bool { return h.pts[i].T >= start })
	hi := sort.Search(len(h.pts), func(i int) bool { return h.pts[i].T > end })
	return lo, hi
}

// AnyIn reports whether some sample lies in the spatio-temporal box.
func (h *History) AnyIn(b geo.STBox) bool {
	lo, hi := h.timeRange(b.Time.Start, b.Time.End)
	for i := lo; i < hi; i++ {
		if b.Area.Contains(h.pts[i].P) {
			return true
		}
	}
	return false
}

// In returns the samples lying in the spatio-temporal box.
func (h *History) In(b geo.STBox) []geo.STPoint {
	var out []geo.STPoint
	lo, hi := h.timeRange(b.Time.Start, b.Time.End)
	for i := lo; i < hi; i++ {
		if b.Area.Contains(h.pts[i].P) {
			out = append(out, h.pts[i])
		}
	}
	return out
}

// Closest returns the sample closest to q under the metric m, and its
// distance. ok is false for an empty history.
//
// The search prunes by time: samples are time-sorted, and the time
// component alone lower-bounds the metric, so scanning outward from q.T
// can stop once the time distance exceeds the best found.
func (h *History) Closest(q geo.STPoint, m geo.STMetric) (best geo.STPoint, dist float64, ok bool) {
	n := len(h.pts)
	if n == 0 {
		return geo.STPoint{}, 0, false
	}
	mid := sort.Search(n, func(i int) bool { return h.pts[i].T >= q.T })
	dist = -1
	consider := func(p geo.STPoint) {
		if d := m.Dist(p, q); dist < 0 || d < dist {
			best, dist = p, d
		}
	}
	lo, hi := mid-1, mid
	for lo >= 0 || hi < n {
		if lo >= 0 {
			if dist >= 0 && m.Dist(geo.STPoint{P: q.P, T: h.pts[lo].T}, geo.STPoint{P: q.P, T: q.T}) > dist {
				lo = -1
			} else {
				consider(h.pts[lo])
				lo--
			}
		}
		if hi < n {
			if dist >= 0 && m.Dist(geo.STPoint{P: q.P, T: h.pts[hi].T}, geo.STPoint{P: q.P, T: q.T}) > dist {
				hi = n
			} else {
				consider(h.pts[hi])
				hi++
			}
		}
	}
	return best, dist, true
}

// LTConsistent reports whether the history is location-time-consistent
// with the given request contexts (paper Def. 7): for every box there is
// a sample whose position the area contains and whose instant the time
// interval contains.
func (h *History) LTConsistent(boxes []geo.STBox) bool {
	for _, b := range boxes {
		if !h.AnyIn(b) {
			return false
		}
	}
	return true
}

// HistoryFromPoints builds a History directly from samples that are
// already in time order (ties in arrival order). The slice is adopted,
// not copied; callers hand over ownership. It exists for storage layers
// that materialize histories from durable tiers and must reproduce the
// exact sample order an in-memory History would hold.
func HistoryFromPoints(pts []geo.STPoint) *History {
	h := &History{pts: pts}
	if len(pts) > 0 {
		h.last = pts[len(pts)-1].T
	}
	return h
}

// Sample is one location update: a user and where and when they were.
// A run of them is the unit batch ingestion hands to a store.
type Sample struct {
	User  UserID
	Point geo.STPoint
}

// Storer is the PHL database interface the privacy layers compute over.
// *Store is the canonical in-memory implementation; the storage package
// provides a durable hot/cold tiered one. Implementations must be safe
// for concurrent use and must preserve Store's semantics exactly:
// History returns samples in time order with arrival-order ties, and the
// user-iteration methods enumerate users in first-seen order. A store
// may also answer closest-sample reads without a history view; see the
// Closest function.
type Storer interface {
	// Record appends a location sample for the user.
	Record(u UserID, p geo.STPoint)
	// History returns the user's history, or nil when the user is
	// unknown. The result is read-only and later Records must not change
	// it (History.View gives both).
	History(u UserID) *History
	// Users returns all known users in first-seen order.
	Users() []UserID
	// NumUsers returns the number of users with at least one sample.
	NumUsers() int
	// NumSamples returns the total number of samples across all users.
	NumSamples() int
	// UsersIn returns the users having at least one sample in the box,
	// in first-seen order.
	UsersIn(b geo.STBox) []UserID
	// CountUsersIn returns how many users have a sample in the box.
	CountUsersIn(b geo.STBox) int
	// LTConsistentUsers returns the users whose history is LT-consistent
	// with every one of the given boxes, in first-seen order.
	LTConsistentUsers(boxes []geo.STBox) []UserID
}

// Store is the trusted server's PHL database: one History per user.
// It is safe for concurrent use.
type Store struct {
	mu    sync.RWMutex
	users map[UserID]*History
	order []UserID // deterministic iteration order (insertion order)
	count int      // total samples across users
}

// NewStore returns an empty PHL store.
func NewStore() *Store {
	return &Store{users: make(map[UserID]*History)}
}

// Record appends a location sample for the user, creating the history on
// first use.
func (s *Store) Record(u UserID, p geo.STPoint) {
	one := [1]Sample{{User: u, Point: p}}
	s.RecordBatch(one[:])
}

// RecordBatch records a run of samples in order, as Record would one at
// a time, under one acquisition of the store's lock: readers wait for
// the whole run.
func (s *Store) RecordBatch(samples []Sample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, x := range samples {
		h, ok := s.users[x.User]
		if !ok {
			h = &History{}
			s.users[x.User] = h
			s.order = append(s.order, x.User)
		}
		h.Append(x.Point)
	}
	s.count += len(samples)
}

// History returns a read-only view of the user's history (see
// History.View), or nil when the user is unknown.
func (s *Store) History(u UserID) *History {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if h := s.users[u]; h != nil {
		return h.View()
	}
	return nil
}

// Closest returns what s.History(u).Closest(q, m) returns, read under
// the store's lock from the live history without taking a view; ok is
// false when the user is unknown.
func (s *Store) Closest(u UserID, q geo.STPoint, m geo.STMetric) (geo.STPoint, float64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if h := s.users[u]; h != nil {
		return h.Closest(q, m)
	}
	return geo.STPoint{}, 0, false
}

// Closest returns the user's sample closest to q under m, and its
// distance: exactly what s.History(u).Closest(q, m) returns, with ok
// false for an unknown user. A store with a Closest method of its own
// (Store, the tiered store) answers without building a history view;
// any other Storer pays for History.
func Closest(s Storer, u UserID, q geo.STPoint, m geo.STMetric) (geo.STPoint, float64, bool) {
	if c, ok := s.(interface {
		Closest(UserID, geo.STPoint, geo.STMetric) (geo.STPoint, float64, bool)
	}); ok {
		return c.Closest(u, q, m)
	}
	if h := s.History(u); h != nil {
		return h.Closest(q, m)
	}
	return geo.STPoint{}, 0, false
}

// Users returns all known users in first-seen order.
func (s *Store) Users() []UserID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]UserID, len(s.order))
	copy(out, s.order)
	return out
}

// NumUsers returns the number of users with at least one sample.
func (s *Store) NumUsers() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.order)
}

// NumSamples returns the total number of samples across all users.
func (s *Store) NumSamples() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// UsersIn returns the users having at least one sample in the box, in
// first-seen order.
func (s *Store) UsersIn(b geo.STBox) []UserID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []UserID
	for _, u := range s.order {
		if s.users[u].AnyIn(b) {
			out = append(out, u)
		}
	}
	return out
}

// CountUsersIn returns how many users have a sample in the box.
func (s *Store) CountUsersIn(b geo.STBox) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, u := range s.order {
		if s.users[u].AnyIn(b) {
			n++
		}
	}
	return n
}

// LTConsistentUsers returns the users whose history is LT-consistent
// with every one of the given boxes (paper Def. 7 applied store-wide).
// This is the anonymity-set computation behind historical k-anonymity.
func (s *Store) LTConsistentUsers(boxes []geo.STBox) []UserID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []UserID
	for _, u := range s.order {
		if s.users[u].LTConsistent(boxes) {
			out = append(out, u)
		}
	}
	return out
}

func (u UserID) String() string { return fmt.Sprintf("u%d", int64(u)) }

// ClosestN returns up to n samples closest to q under the metric m,
// ordered by increasing distance. It generalizes Closest with the same
// time-window pruning: once the pure time distance of the scan frontier
// exceeds the current n-th best, no better sample can follow.
func (h *History) ClosestN(q geo.STPoint, n int, m geo.STMetric) []geo.STPoint {
	if n <= 0 || len(h.pts) == 0 {
		return nil
	}
	mid := sort.Search(len(h.pts), func(i int) bool { return h.pts[i].T >= q.T })

	type cand struct {
		p geo.STPoint
		d float64
	}
	// Small max-heap by distance, kept as a sorted slice (n is small).
	var best []cand
	worst := func() float64 {
		if len(best) < n {
			return math.Inf(1)
		}
		return best[len(best)-1].d
	}
	consider := func(p geo.STPoint) {
		d := m.Dist(p, q)
		if d >= worst() {
			return
		}
		i := sort.Search(len(best), func(i int) bool { return best[i].d > d })
		best = append(best, cand{})
		copy(best[i+1:], best[i:])
		best[i] = cand{p, d}
		if len(best) > n {
			best = best[:n]
		}
	}
	timeDist := func(t int64) float64 {
		return m.Dist(geo.STPoint{P: q.P, T: t}, geo.STPoint{P: q.P, T: q.T})
	}
	lo, hi := mid-1, mid
	for lo >= 0 || hi < len(h.pts) {
		if lo >= 0 {
			if timeDist(h.pts[lo].T) > worst() {
				lo = -1
			} else {
				consider(h.pts[lo])
				lo--
			}
		}
		if hi < len(h.pts) {
			if timeDist(h.pts[hi].T) > worst() {
				hi = len(h.pts)
			} else {
				consider(h.pts[hi])
				hi++
			}
		}
	}
	out := make([]geo.STPoint, len(best))
	for i, c := range best {
		out[i] = c.p
	}
	return out
}
