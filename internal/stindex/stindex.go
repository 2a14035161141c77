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
// the query began (for Grid, see the best-effort caveat on the Grid
// type). For Algorithm 1 this raciness is conservative:
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

// knnScanMax is the largest k whose accumulator finds a user's heap
// slot by scanning the heap rather than through a map. Over the grid of
// perfbench's requests workload (701,235 samples, 2-vCPU host),
// scanning wins through k = 64 (22.5 µs per query at k = 64 against
// 29.0), breaks even near 128 and loses from about 192. That sweep of k
// is synthetic: no benchmark workload asks for k > 64 (perfbench uses 4
// and 24, the experiments 2–20), so the map side and this crossover are
// unverified end to end. The map side stays because a policy may set
// any k ≥ 1, and a scan costs O(k) per admitted sample.
const knnScanMax = 64

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
// with the smallest per-user best distances. A user outside a full heap
// therefore has a best distance ≥ heap[0].dist, so any sample closer
// than heap[0].dist is automatically an improvement — no per-user best
// map is needed — and any sample at least that far changes nothing
// (admits). For k > knnScanMax, pos maps each heap member to its slot;
// a smaller heap is scanned instead.
//
// Accumulators are pooled: queries are hot (one per Algorithm 1 call)
// and the maps/slices dominate the allocation profile otherwise.
type knnAcc struct {
	k       int
	heap    []nearestCand      // max-heap over the k smallest per-user dists
	indexed bool               // pos tracks the heap (k > knnScanMax)
	pos     map[phl.UserID]int // heap slot by user, heap members only
}

var knnAccPool = sync.Pool{New: func() interface{} {
	return &knnAcc{pos: make(map[phl.UserID]int)}
}}

// getKNNAcc returns a cleared accumulator for a k-nearest query.
func getKNNAcc(k int) *knnAcc {
	a := knnAccPool.Get().(*knnAcc)
	a.k = k
	a.indexed = k > knnScanMax
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

// admits reports whether a sample at distance d can change the result.
// Indexes test it before looking up the sample's user anywhere.
func (a *knnAcc) admits(d float64) bool {
	return len(a.heap) < a.k || d < a.heap[0].dist
}

// slot returns the heap slot of user u, or -1 when u is not a member.
func (a *knnAcc) slot(u phl.UserID) int {
	if a.indexed {
		if i, ok := a.pos[u]; ok {
			return i
		}
		return -1
	}
	for i := range a.heap {
		if a.heap[i].up.User == u {
			return i
		}
	}
	return -1
}

// offer considers one sample at distance d from the query; admits(d)
// must hold.
func (a *knnAcc) offer(up UserPoint, d float64) {
	c := nearestCand{up: up, dist: d}
	if i := a.slot(up.User); i >= 0 {
		// Already a top-k member: only an improvement matters, and it
		// keeps the user in the top-k (its best got smaller).
		if d < a.heap[i].dist {
			a.siftDown(i, c)
		}
		return
	}
	if len(a.heap) < a.k {
		// Heap not full ⇒ every user seen so far is a member ⇒ up.User is
		// new: push it.
		a.heap = append(a.heap, c)
		a.siftUp(len(a.heap)-1, c)
		return
	}
	// A non-member's best is ≥ heap[0].dist > d, so d improves it into
	// the top-k; the previous k-th best falls out.
	if a.indexed {
		delete(a.pos, a.heap[0].up.User)
	}
	a.siftDown(0, c)
}

// set stores c in slot i.
func (a *knnAcc) set(i int, c nearestCand) {
	a.heap[i] = c
	if a.indexed {
		a.pos[c.up.User] = i
	}
}

// siftUp places c, the new occupant of slot i, moving larger parents
// down into the hole; each moved candidate is stored once.
func (a *knnAcc) siftUp(i int, c nearestCand) {
	for i > 0 {
		parent := (i - 1) / 2
		if a.heap[parent].dist >= c.dist {
			break
		}
		a.set(i, a.heap[parent])
		i = parent
	}
	a.set(i, c)
}

// siftDown places c, the new occupant of slot i, moving larger
// children up into the hole; each moved candidate is stored once.
func (a *knnAcc) siftDown(i int, c nearestCand) {
	n := len(a.heap)
	for {
		l, r := 2*i+1, 2*i+2
		big, bigDist := -1, c.dist
		if l < n && a.heap[l].dist > bigDist {
			big, bigDist = l, a.heap[l].dist
		}
		if r < n && a.heap[r].dist > bigDist {
			big = r
		}
		if big < 0 {
			break
		}
		a.set(i, a.heap[big])
		i = big
	}
	a.set(i, c)
}

// result extracts the accumulated users ordered by increasing distance.
// It consumes the heap; release the accumulator afterwards.
func (a *knnAcc) result() []UserPoint {
	a.indexed = false // the heap is consumed; pos is cleared on release
	out := make([]UserPoint, len(a.heap))
	for i := len(a.heap) - 1; i >= 0; i-- {
		out[i] = a.heap[0].up
		last := a.heap[i]
		a.heap = a.heap[:i]
		if i > 0 {
			a.siftDown(0, last)
		}
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
