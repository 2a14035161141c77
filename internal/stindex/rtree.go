package stindex

import (
	"math"
	"sort"
	"sync"

	"histanon/internal/geo"
	"histanon/internal/phl"
)

// RTree is a 3-dimensional R-tree over (x, y, t) with quadratic-split
// insertion — the classic moving-object index family the paper's §6.2
// points at. It stores spatio-temporal bounding boxes at internal
// nodes, so both the box query and the k-distinct-users nearest query
// prune on full 3D volumes.
//
// Like the metric queries of the other indexes, the time axis is scaled
// by the query metric at search time; node boxes store raw coordinates.
//
// Concurrency: an RWMutex serializes Insert (which rewrites node boxes
// and splits nodes in place) against queries; queries run in parallel
// with each other.
type RTree struct {
	mu   sync.RWMutex
	root *rtNode
	n    int
	// minFill/maxFill are the node occupancy bounds (R-tree "m"/"M").
	maxFill int
}

type rtBox struct {
	minX, minY, maxX, maxY float64
	minT, maxT             int64
}

type rtNode struct {
	box      rtBox
	leaf     bool
	entries  []UserPoint // leaf payload
	children []*rtNode   // internal children
}

// NewRTree returns an empty R-tree with the default fan-out (16).
func NewRTree() *RTree { return &RTree{maxFill: 16} }

func boxOf(p geo.STPoint) rtBox {
	return rtBox{minX: p.P.X, minY: p.P.Y, maxX: p.P.X, maxY: p.P.Y, minT: p.T, maxT: p.T}
}

func (b rtBox) extend(o rtBox) rtBox {
	return rtBox{
		minX: math.Min(b.minX, o.minX), minY: math.Min(b.minY, o.minY),
		maxX: math.Max(b.maxX, o.maxX), maxY: math.Max(b.maxY, o.maxY),
		minT: min64(b.minT, o.minT), maxT: max64(b.maxT, o.maxT),
	}
}

// volume uses the metric's time scale so enlargement decisions reflect
// query geometry; the scale only matters relatively, so inserts use
// scale 1.
func (b rtBox) volume(scale float64) float64 {
	return (b.maxX - b.minX + 1) * (b.maxY - b.minY + 1) * (float64(b.maxT-b.minT)*scale + 1)
}

func (b rtBox) intersects(q geo.STBox) bool {
	return b.minX <= q.Area.MaxX && q.Area.MinX <= b.maxX &&
		b.minY <= q.Area.MaxY && q.Area.MinY <= b.maxY &&
		b.minT <= q.Time.End && q.Time.Start <= b.maxT
}

// distTo returns the minimum metric distance from the query point to
// the box.
func (b rtBox) distTo(q geo.STPoint, scale float64) float64 {
	dx := math.Max(0, math.Max(b.minX-q.P.X, q.P.X-b.maxX))
	dy := math.Max(0, math.Max(b.minY-q.P.Y, q.P.Y-b.maxY))
	var dt float64
	switch {
	case q.T < b.minT:
		dt = float64(b.minT-q.T) * scale
	case q.T > b.maxT:
		dt = float64(q.T-b.maxT) * scale
	}
	return math.Sqrt(dx*dx + dy*dy + dt*dt)
}

// Insert implements Index.
func (t *RTree) Insert(u phl.UserID, p geo.STPoint) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.n++
	e := UserPoint{User: u, Point: p}
	if t.root == nil {
		t.root = &rtNode{leaf: true, box: boxOf(p), entries: []UserPoint{e}}
		return
	}
	n2 := t.insert(t.root, e)
	if n2 != nil {
		// Root split: grow the tree.
		old := t.root
		t.root = &rtNode{
			box:      old.box.extend(n2.box),
			children: []*rtNode{old, n2},
		}
	}
}

// insert adds e under n and returns a new sibling when n split.
func (t *RTree) insert(n *rtNode, e UserPoint) *rtNode {
	eb := boxOf(e.Point)
	n.box = n.box.extend(eb)
	if n.leaf {
		n.entries = append(n.entries, e)
		if len(n.entries) > t.maxFill {
			return t.splitLeaf(n)
		}
		return nil
	}
	// Choose the child needing least volume enlargement.
	best := -1
	bestGrow := math.Inf(1)
	bestVol := math.Inf(1)
	for i, c := range n.children {
		grown := c.box.extend(eb)
		grow := grown.volume(1) - c.box.volume(1)
		if grow < bestGrow || (grow == bestGrow && c.box.volume(1) < bestVol) {
			best, bestGrow, bestVol = i, grow, c.box.volume(1)
		}
	}
	if n2 := t.insert(n.children[best], e); n2 != nil {
		n.children = append(n.children, n2)
		if len(n.children) > t.maxFill {
			return t.splitInternal(n)
		}
	}
	return nil
}

// splitLeaf partitions an overfull leaf along its longest axis (a cheap
// linear split: sort by the axis midpoint and halve).
func (t *RTree) splitLeaf(n *rtNode) *rtNode {
	axis := longestAxis(n.box)
	sort.Slice(n.entries, func(i, j int) bool {
		return axisValue(n.entries[i].Point, axis) < axisValue(n.entries[j].Point, axis)
	})
	half := len(n.entries) / 2
	right := &rtNode{leaf: true, entries: append([]UserPoint(nil), n.entries[half:]...)}
	n.entries = n.entries[:half]
	n.box = recomputeLeafBox(n.entries)
	right.box = recomputeLeafBox(right.entries)
	return right
}

func (t *RTree) splitInternal(n *rtNode) *rtNode {
	axis := longestAxis(n.box)
	sort.Slice(n.children, func(i, j int) bool {
		return axisCenter(n.children[i].box, axis) < axisCenter(n.children[j].box, axis)
	})
	half := len(n.children) / 2
	right := &rtNode{children: append([]*rtNode(nil), n.children[half:]...)}
	n.children = n.children[:half]
	n.box = recomputeInternalBox(n.children)
	right.box = recomputeInternalBox(right.children)
	return right
}

func longestAxis(b rtBox) int {
	dx, dy := b.maxX-b.minX, b.maxY-b.minY
	dt := float64(b.maxT - b.minT)
	switch {
	case dx >= dy && dx >= dt:
		return 0
	case dy >= dt:
		return 1
	default:
		return 2
	}
}

func axisValue(p geo.STPoint, axis int) float64 {
	switch axis {
	case 0:
		return p.P.X
	case 1:
		return p.P.Y
	default:
		return float64(p.T)
	}
}

func axisCenter(b rtBox, axis int) float64 {
	switch axis {
	case 0:
		return (b.minX + b.maxX) / 2
	case 1:
		return (b.minY + b.maxY) / 2
	default:
		return float64(b.minT+b.maxT) / 2
	}
}

func recomputeLeafBox(entries []UserPoint) rtBox {
	b := boxOf(entries[0].Point)
	for _, e := range entries[1:] {
		b = b.extend(boxOf(e.Point))
	}
	return b
}

func recomputeInternalBox(children []*rtNode) rtBox {
	b := children[0].box
	for _, c := range children[1:] {
		b = b.extend(c.box)
	}
	return b
}

// Len implements Index.
func (t *RTree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.n
}

// UsersInBox implements Index.
func (t *RTree) UsersInBox(box geo.STBox) []phl.UserID {
	seen := getSeen()
	defer putSeen(seen)
	var out []phl.UserID
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.walkBox(t.root, box, func(e UserPoint) {
		if !seen[e.User] {
			seen[e.User] = true
			out = append(out, e.User)
		}
	})
	return out
}

// CountUsersInBox implements Index.
func (t *RTree) CountUsersInBox(box geo.STBox) int {
	seen := getSeen()
	defer putSeen(seen)
	n := 0
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.walkBox(t.root, box, func(e UserPoint) {
		if !seen[e.User] {
			seen[e.User] = true
			n++
		}
	})
	return n
}

func (t *RTree) walkBox(n *rtNode, box geo.STBox, visit func(UserPoint)) {
	if n == nil || !n.box.intersects(box) {
		return
	}
	if n.leaf {
		for _, e := range n.entries {
			if box.Contains(e.Point) {
				visit(e)
			}
		}
		return
	}
	for _, c := range n.children {
		t.walkBox(c, box, visit)
	}
}

// rtQueued is one node on the best-first search frontier.
type rtQueued struct {
	node *rtNode
	dist float64
}

// KNearestUsers implements Index: best-first traversal ordered by
// box distance, with the per-user k-th best bound as the prune line
// (same correctness argument as the grid: a pruned subtree's points are
// farther than the running k-th best per-user distance, so they can
// neither improve a winner nor introduce one). The bound is maintained
// incrementally by the accumulator.
func (t *RTree) KNearestUsers(q geo.STPoint, k int, m geo.STMetric, exclude map[phl.UserID]bool) []UserPoint {
	if k <= 0 {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.root == nil {
		return nil
	}
	scale := m.Scale()
	acc := getKNNAcc(k)
	defer acc.release()

	// Best-first queue over nodes by distance to q.
	queue := []rtQueued{{t.root, t.root.box.distTo(q, scale)}}
	for len(queue) > 0 {
		// Pop the nearest node (linear pop keeps the code simple; queue
		// depth is O(height × fan-out)).
		bestIdx := 0
		for i := 1; i < len(queue); i++ {
			if queue[i].dist < queue[bestIdx].dist {
				bestIdx = i
			}
		}
		cur := queue[bestIdx]
		queue[bestIdx] = queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if cur.dist > acc.bound() {
			continue
		}
		if cur.node.leaf {
			for _, e := range cur.node.entries {
				if d := m.Dist(e.Point, q); acc.admits(d) && !exclude[e.User] {
					acc.offer(e, d)
				}
			}
			continue
		}
		bound := acc.bound()
		for _, c := range cur.node.children {
			if d := c.box.distTo(q, scale); d <= bound {
				queue = append(queue, rtQueued{c, d})
			}
		}
	}
	return acc.result()
}
