// Package stindex provides spatio-temporal indexes over location
// samples. The paper's Algorithm 1 needs two query primitives:
//
//   - the distinct users having a sample inside a spatio-temporal box
//     (anonymity-set counting), and
//   - the k distinct users whose trajectories pass nearest to a query
//     point ⟨x,y,t⟩ (line 5: "the smallest 3D space containing ⟨x,y,t⟩
//     and crossed by k trajectories").
//
// The paper sketches only the O(k·n) brute-force method and notes that
// "optimizations may be inspired by the work on indexing moving
// objects"; this package supplies that brute-force baseline plus a
// uniform grid, a 3D k-d tree and an R-tree, all behind the Index
// interface, so the ablation experiment (E10) can compare them.
//
// # Concurrency
//
// Every index constructed by this package is safe for concurrent use:
// Insert may run concurrently with other Inserts and with any number of
// queries. The Grid uses per-shard locking so readers proceed in
// parallel with writers; Brute, KDTree and RTree serialize writers
// against readers with an RWMutex (parallel readers, exclusive
// writers).
//
// A query that races an Insert may or may not observe the in-flight
// sample; it always observes every sample whose Insert returned before
// the query began (for Grid, see the best-effort caveat on
// Grid.KNearestUsers). For Algorithm 1 this raciness is conservative:
// missing a just-inserted nearby witness can only select a farther one,
// enlarging the anonymity box.
package stindex

import (
	"math"
	"sync"

	"histanon/internal/geo"
	"histanon/internal/phl"
)

// inf is the +Inf prune bound used while fewer than k users are known.
var inf = math.Inf(1)

// UserPoint pairs a user with one of their location samples.
type UserPoint = phl.Sample

// Index answers spatio-temporal queries over a growing set of location
// samples. All implementations in this package are safe for concurrent
// use (see the package comment for the exact guarantees).
type Index interface {
	// Insert adds one sample for the user.
	Insert(u phl.UserID, p geo.STPoint)
	// Len returns the number of samples inserted.
	Len() int
	// UsersInBox returns the distinct users having at least one sample in
	// b. Order is implementation-defined.
	UsersInBox(b geo.STBox) []phl.UserID
	// CountUsersInBox returns the number of distinct users with a sample
	// in b.
	CountUsersInBox(b geo.STBox) int
	// KNearestUsers returns up to k entries, one per distinct user (the
	// user's closest sample to q under m), ordered by increasing
	// distance. Users listed in exclude are skipped.
	KNearestUsers(q geo.STPoint, k int, m geo.STMetric, exclude map[phl.UserID]bool) []UserPoint
}

// SmallestEnclosingBox returns the smallest spatio-temporal box
// containing the query point and one trajectory sample from each of k
// distinct users — the generalized context of Algorithm 1 line 5. The
// second result lists the chosen users' samples; ok is false when fewer
// than k distinct users exist.
func SmallestEnclosingBox(idx Index, q geo.STPoint, k int, m geo.STMetric, exclude map[phl.UserID]bool) (geo.STBox, []UserPoint, bool) {
	nearest := idx.KNearestUsers(q, k, m, exclude)
	if len(nearest) < k {
		return geo.STBox{}, nil, false
	}
	box := geo.STBoxAround(q)
	for _, up := range nearest {
		box = box.Extend(up.Point)
	}
	return box, nearest, true
}

// nearestCand is one candidate user point with its distance to the
// query.
type nearestCand struct {
	up   UserPoint
	dist float64
}

// knnAcc accumulates per-user nearest candidates during a KNearestUsers
// query. It maintains, incrementally, a max-heap of the k users whose
// current per-user best distance is smallest, so
//
//   - Bound (the running k-th smallest per-user distance — the prune
//     line of every index's search) is O(1) instead of a rebuild over
//     all users, and
//   - each Offer costs O(log k) only when it changes the top-k set.
//
// Invariant: heap holds exactly the min(k, distinct-users-seen) users
// with the smallest per-user best distances; pos maps each heap member
// to its slot. A user outside a full heap therefore has a best distance
// ≥ heap[0].dist, so any sample closer than heap[0].dist is
// automatically an improvement — no per-user best map is needed.
//
// Accumulators are pooled: queries are hot (one per Algorithm 1 call)
// and the maps/slices dominate the allocation profile otherwise.
type knnAcc struct {
	k    int
	heap []nearestCand      // max-heap over the k smallest per-user dists
	pos  map[phl.UserID]int // heap slot by user, heap members only
}

var knnAccPool = sync.Pool{New: func() interface{} {
	return &knnAcc{pos: make(map[phl.UserID]int)}
}}

// getKNNAcc returns a cleared accumulator for a k-nearest query.
func getKNNAcc(k int) *knnAcc {
	a := knnAccPool.Get().(*knnAcc)
	a.k = k
	return a
}

// release returns the accumulator to the pool.
func (a *knnAcc) release() {
	clear(a.pos)
	a.heap = a.heap[:0]
	knnAccPool.Put(a)
}

// Bound returns the current k-th smallest per-user distance, or +Inf
// while fewer than k distinct users have been offered.
func (a *knnAcc) bound() float64 {
	if len(a.heap) < a.k {
		return inf
	}
	return a.heap[0].dist
}

// offer considers one sample at distance d from the query.
func (a *knnAcc) offer(up UserPoint, d float64) {
	if i, ok := a.pos[up.User]; ok {
		// Already a top-k member: only an improvement matters, and it
		// keeps the user in the top-k (its best got smaller).
		if d < a.heap[i].dist {
			a.heap[i] = nearestCand{up: up, dist: d}
			a.siftDown(i)
		}
		return
	}
	if len(a.heap) < a.k {
		// Heap not full ⇒ every user seen so far is a member ⇒ up.User is
		// new: push it.
		a.heap = append(a.heap, nearestCand{up: up, dist: d})
		a.pos[up.User] = len(a.heap) - 1
		a.siftUp(len(a.heap) - 1)
		return
	}
	if d < a.heap[0].dist {
		// A non-member's best is ≥ heap[0].dist, so d improves it into the
		// top-k; the previous k-th best falls out.
		delete(a.pos, a.heap[0].up.User)
		a.heap[0] = nearestCand{up: up, dist: d}
		a.pos[up.User] = 0
		a.siftDown(0)
	}
}

func (a *knnAcc) swap(i, j int) {
	a.heap[i], a.heap[j] = a.heap[j], a.heap[i]
	a.pos[a.heap[i].up.User] = i
	a.pos[a.heap[j].up.User] = j
}

func (a *knnAcc) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if a.heap[parent].dist >= a.heap[i].dist {
			return
		}
		a.swap(i, parent)
		i = parent
	}
}

func (a *knnAcc) siftDown(i int) {
	n := len(a.heap)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && a.heap[l].dist > a.heap[big].dist {
			big = l
		}
		if r < n && a.heap[r].dist > a.heap[big].dist {
			big = r
		}
		if big == i {
			return
		}
		a.swap(i, big)
		i = big
	}
}

// result extracts the accumulated users ordered by increasing distance.
// It consumes the heap; release the accumulator afterwards.
func (a *knnAcc) result() []UserPoint {
	out := make([]UserPoint, len(a.heap))
	for i := len(a.heap) - 1; i >= 0; i-- {
		out[i] = a.heap[0].up
		last := len(a.heap) - 1
		a.swap(0, last)
		a.heap = a.heap[:last]
		a.siftDown(0)
	}
	return out
}

// seenPool recycles the distinct-user sets of UsersInBox and
// CountUsersInBox across queries.
var seenPool = sync.Pool{New: func() interface{} {
	return make(map[phl.UserID]bool)
}}

func getSeen() map[phl.UserID]bool { return seenPool.Get().(map[phl.UserID]bool) }

func putSeen(s map[phl.UserID]bool) {
	clear(s)
	seenPool.Put(s)
}
