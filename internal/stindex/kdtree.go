package stindex

import (
	"math"
	"sync"

	"histanon/internal/geo"
	"histanon/internal/phl"
)

// KDTree is a 3-dimensional k-d tree over (x, y, t). Nodes are inserted
// without rebalancing, which is adequate for the quasi-random insertion
// order of location streams; the ablation benchmarks quantify the
// difference against the grid.
//
// Coordinates are stored raw; the query metric's time scale is applied
// during search, so the same tree serves any STMetric.
//
// Concurrency: an RWMutex serializes Insert against queries; queries
// run in parallel with each other (a native lock-free design is not
// worth it for a pointer-linked tree).
type KDTree struct {
	mu   sync.RWMutex
	root *kdNode
	n    int
}

type kdNode struct {
	entry       UserPoint
	left, right *kdNode
}

// NewKDTree returns an empty tree.
func NewKDTree() *KDTree { return &KDTree{} }

// Insert implements Index.
func (t *KDTree) Insert(u phl.UserID, p geo.STPoint) {
	node := &kdNode{entry: UserPoint{User: u, Point: p}}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.n++
	if t.root == nil {
		t.root = node
		return
	}
	cur := t.root
	for depth := 0; ; depth++ {
		if coord(p, depth%3) < coord(cur.entry.Point, depth%3) {
			if cur.left == nil {
				cur.left = node
				return
			}
			cur = cur.left
		} else {
			if cur.right == nil {
				cur.right = node
				return
			}
			cur = cur.right
		}
	}
}

// Len implements Index.
func (t *KDTree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.n
}

func coord(p geo.STPoint, axis int) float64 {
	switch axis {
	case 0:
		return p.P.X
	case 1:
		return p.P.Y
	default:
		return float64(p.T)
	}
}

func boxMin(b geo.STBox, axis int) float64 {
	switch axis {
	case 0:
		return b.Area.MinX
	case 1:
		return b.Area.MinY
	default:
		return float64(b.Time.Start)
	}
}

func boxMax(b geo.STBox, axis int) float64 {
	switch axis {
	case 0:
		return b.Area.MaxX
	case 1:
		return b.Area.MaxY
	default:
		return float64(b.Time.End)
	}
}

// UsersInBox implements Index.
func (t *KDTree) UsersInBox(box geo.STBox) []phl.UserID {
	seen := getSeen()
	defer putSeen(seen)
	var out []phl.UserID
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.walkBox(t.root, 0, box, func(e UserPoint) {
		if !seen[e.User] {
			seen[e.User] = true
			out = append(out, e.User)
		}
	})
	return out
}

// CountUsersInBox implements Index.
func (t *KDTree) CountUsersInBox(box geo.STBox) int {
	seen := getSeen()
	defer putSeen(seen)
	n := 0
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.walkBox(t.root, 0, box, func(e UserPoint) {
		if !seen[e.User] {
			seen[e.User] = true
			n++
		}
	})
	return n
}

func (t *KDTree) walkBox(n *kdNode, depth int, box geo.STBox, visit func(UserPoint)) {
	if n == nil {
		return
	}
	if box.Contains(n.entry.Point) {
		visit(n.entry)
	}
	axis := depth % 3
	c := coord(n.entry.Point, axis)
	if boxMin(box, axis) < c {
		t.walkBox(n.left, depth+1, box, visit)
	}
	if boxMax(box, axis) >= c {
		t.walkBox(n.right, depth+1, box, visit)
	}
}

// KNearestUsers implements Index. A branch is pruned when the distance
// from the query to the splitting plane already exceeds the current
// k-th best per-user distance (read in O(1) from the accumulator).
func (t *KDTree) KNearestUsers(q geo.STPoint, k int, m geo.STMetric, exclude map[phl.UserID]bool) []UserPoint {
	if k <= 0 {
		return nil
	}
	acc := getKNNAcc(k)
	defer acc.release()
	s := &kdSearch{q: q, m: m, scale: m.Scale(), exclude: exclude, acc: acc}
	t.mu.RLock()
	s.visit(t.root, 0)
	t.mu.RUnlock()
	return acc.result()
}

type kdSearch struct {
	q       geo.STPoint
	m       geo.STMetric
	scale   float64
	exclude map[phl.UserID]bool
	acc     *knnAcc
}

func (s *kdSearch) visit(n *kdNode, depth int) {
	if n == nil {
		return
	}
	if d := s.m.Dist(n.entry.Point, s.q); s.acc.admits(d) && !s.exclude[n.entry.User] {
		s.acc.offer(n.entry, d)
	}
	axis := depth % 3
	qc := coord(s.q, axis)
	nc := coord(n.entry.Point, axis)
	planeDist := math.Abs(qc - nc)
	if axis == 2 {
		planeDist *= s.scale
	}
	near, far := n.left, n.right
	if qc >= nc {
		near, far = n.right, n.left
	}
	s.visit(near, depth+1)
	if planeDist <= s.acc.bound() {
		s.visit(far, depth+1)
	}
}
