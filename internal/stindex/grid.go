package stindex

import (
	"math"
	"sync"

	"histanon/internal/geo"
	"histanon/internal/phl"
)

// gridShardCount is the number of cell-map shards (power of two). With
// hash-sharded locking, concurrent inserts into different cells and
// concurrent readers contend only when they hash to the same shard.
const gridShardCount = 64

// gridShard holds one slice of the cell map under its own lock.
type gridShard struct {
	mu    sync.RWMutex
	cells map[gridKey][]UserPoint
}

// Grid is a sparse uniform grid over space and time: samples hash into
// cells of CellSize×CellSize meters and BucketLen seconds. Box queries
// touch only overlapping cells; nearest-user queries expand outward in
// shells until the running k-th best distance prunes the frontier.
//
// Concurrency: the cell map is split into gridShardCount shards, each
// guarded by its own RWMutex, so inserts and queries touching different
// shards proceed fully in parallel; global bookkeeping (sample count,
// user set, populated bounds) sits behind a separate narrow RWMutex.
// Cell payload slices are append-only: a reader that snapshot a slice
// header under the shard lock can keep scanning its elements after
// releasing the lock, because concurrent appends never mutate published
// elements.
//
// Queries racing Inserts are best-effort in one bounded way: a
// KNearestUsers sweep terminates once it has visited as many samples as
// existed when it started, so samples inserted mid-sweep can displace
// (not corrupt) its view of equally-old samples in yet-unvisited cells.
// Any missed nearby witness only makes Algorithm 1 pick a farther one —
// a conservative, privacy-preserving error direction.
type Grid struct {
	cellSize  float64
	bucketLen int64
	shards    [gridShardCount]gridShard

	// meta guards the cross-shard bookkeeping below.
	meta  sync.RWMutex
	n     int
	users map[phl.UserID]struct{}
	// Observed cell-coordinate bounds let shell expansion terminate when
	// the whole populated grid has been visited.
	min, max gridKey
}

type gridKey struct {
	cx, cy, ct int64
}

// NewGrid returns an empty grid index with the given spatial cell size
// (meters) and temporal bucket length (seconds). Both must be positive.
func NewGrid(cellSize float64, bucketLen int64) *Grid {
	if cellSize <= 0 || bucketLen <= 0 {
		panic("stindex: grid cell dimensions must be positive")
	}
	g := &Grid{
		cellSize:  cellSize,
		bucketLen: bucketLen,
		users:     make(map[phl.UserID]struct{}),
	}
	for i := range g.shards {
		g.shards[i].cells = make(map[gridKey][]UserPoint)
	}
	return g
}

func (g *Grid) key(p geo.STPoint) gridKey {
	return gridKey{
		cx: int64(math.Floor(p.P.X / g.cellSize)),
		cy: int64(math.Floor(p.P.Y / g.cellSize)),
		ct: floorDiv(p.T, g.bucketLen),
	}
}

// shardIndex hashes a cell key onto its shard's index.
func shardIndex(k gridKey) int {
	h := uint64(k.cx)*0x9e3779b185ebca87 ^ uint64(k.cy)*0xc2b2ae3d27d4eb4f ^ uint64(k.ct)*0x165667b19e3779f9
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return int(h & (gridShardCount - 1))
}

// shardOf returns a cell key's shard.
func (g *Grid) shardOf(k gridKey) *gridShard { return &g.shards[shardIndex(k)] }

// loadCell snapshots one cell's entries. The returned slice is safe to
// scan after the shard lock is released (payloads are append-only).
func (g *Grid) loadCell(k gridKey) []UserPoint {
	sh := g.shardOf(k)
	sh.mu.RLock()
	entries := sh.cells[k]
	sh.mu.RUnlock()
	return entries
}

// cellBox returns the spatio-temporal extent of a cell.
func (g *Grid) cellBox(k gridKey) geo.STBox {
	return geo.STBox{
		Area: geo.Rect{
			MinX: float64(k.cx) * g.cellSize, MinY: float64(k.cy) * g.cellSize,
			MaxX: float64(k.cx+1) * g.cellSize, MaxY: float64(k.cy+1) * g.cellSize,
		},
		Time: geo.Interval{Start: k.ct * g.bucketLen, End: (k.ct+1)*g.bucketLen - 1},
	}
}

// Insert implements Index.
func (g *Grid) Insert(u phl.UserID, p geo.STPoint) {
	k := g.key(p)
	sh := g.shardOf(k)
	sh.mu.Lock()
	sh.cells[k] = append(sh.cells[k], UserPoint{User: u, Point: p})
	sh.mu.Unlock()

	g.meta.Lock()
	g.users[u] = struct{}{}
	g.grow(k, k, 1)
	g.meta.Unlock()
}

// grow counts n new samples whose cells span lo..hi into the populated
// bounds. Caller holds meta.
func (g *Grid) grow(lo, hi gridKey, n int) {
	if g.n == 0 {
		g.min, g.max = lo, hi
	} else {
		g.min = gridKey{min64(g.min.cx, lo.cx), min64(g.min.cy, lo.cy), min64(g.min.ct, lo.ct)}
		g.max = gridKey{max64(g.max.cx, hi.cx), max64(g.max.cy, hi.cy), max64(g.max.ct, hi.ct)}
	}
	g.n += n
}

// gridBatch holds InsertBatch's working arrays, pooled across calls:
// each sample's cell key, and the run's sample indexes bucketed by
// shard.
type gridBatch struct {
	keys  []gridKey
	order []int32
}

var gridBatchPool = sync.Pool{New: func() any { return new(gridBatch) }}

// InsertBatch inserts a run of samples, as Insert would one at a time,
// taking each touched shard's lock once and meta once. A stable counting
// sort buckets the run by shard, so every cell receives its samples in
// run order.
func (g *Grid) InsertBatch(samples []phl.Sample) {
	n := len(samples)
	if n == 0 {
		return
	}
	b := gridBatchPool.Get().(*gridBatch)
	defer gridBatchPool.Put(b)
	if cap(b.keys) < n {
		b.keys, b.order = make([]gridKey, n), make([]int32, n)
	}
	keys, order := b.keys[:n], b.order[:n]

	// start[s] becomes the first slot of shard s's bucket in order.
	var start [gridShardCount + 1]int32
	lo := g.key(samples[0].Point)
	hi := lo
	for i, x := range samples {
		k := g.key(x.Point)
		keys[i] = k
		start[shardIndex(k)+1]++
		lo = gridKey{min64(lo.cx, k.cx), min64(lo.cy, k.cy), min64(lo.ct, k.ct)}
		hi = gridKey{max64(hi.cx, k.cx), max64(hi.cy, k.cy), max64(hi.ct, k.ct)}
	}
	for s := 1; s <= gridShardCount; s++ {
		start[s] += start[s-1]
	}
	next := start
	for i, k := range keys {
		s := shardIndex(k)
		order[next[s]] = int32(i)
		next[s]++
	}
	for s := 0; s < gridShardCount; s++ {
		if start[s] == start[s+1] {
			continue
		}
		sh := &g.shards[s]
		sh.mu.Lock()
		for _, i := range order[start[s]:start[s+1]] {
			k := keys[i]
			sh.cells[k] = append(sh.cells[k], samples[i])
		}
		sh.mu.Unlock()
	}

	g.meta.Lock()
	for _, x := range samples {
		g.users[x.User] = struct{}{}
	}
	g.grow(lo, hi, n)
	g.meta.Unlock()
}

// Len implements Index.
func (g *Grid) Len() int {
	g.meta.RLock()
	defer g.meta.RUnlock()
	return g.n
}

// snapshotMeta reads the cross-shard bookkeeping consistently.
func (g *Grid) snapshotMeta() (n, users int, min, max gridKey) {
	g.meta.RLock()
	defer g.meta.RUnlock()
	return g.n, len(g.users), g.min, g.max
}

// UsersInBox implements Index.
func (g *Grid) UsersInBox(box geo.STBox) []phl.UserID {
	seen := getSeen()
	defer putSeen(seen)
	var out []phl.UserID
	g.scanBox(box, func(e UserPoint) {
		if !seen[e.User] {
			seen[e.User] = true
			out = append(out, e.User)
		}
	})
	return out
}

// CountUsersInBox implements Index.
func (g *Grid) CountUsersInBox(box geo.STBox) int {
	seen := getSeen()
	defer putSeen(seen)
	n := 0
	g.scanBox(box, func(e UserPoint) {
		if !seen[e.User] {
			seen[e.User] = true
			n++
		}
	})
	return n
}

func (g *Grid) scanBox(box geo.STBox, visit func(UserPoint)) {
	n, _, gmin, gmax := g.snapshotMeta()
	if n == 0 {
		return
	}
	lo := g.key(geo.STPoint{P: geo.Point{X: box.Area.MinX, Y: box.Area.MinY}, T: box.Time.Start})
	hi := g.key(geo.STPoint{P: geo.Point{X: box.Area.MaxX, Y: box.Area.MaxY}, T: box.Time.End})
	// Clamp to the populated region so huge query boxes stay cheap.
	lo.cx, hi.cx = max64(lo.cx, gmin.cx), min64(hi.cx, gmax.cx)
	lo.cy, hi.cy = max64(lo.cy, gmin.cy), min64(hi.cy, gmax.cy)
	lo.ct, hi.ct = max64(lo.ct, gmin.ct), min64(hi.ct, gmax.ct)
	for cx := lo.cx; cx <= hi.cx; cx++ {
		for cy := lo.cy; cy <= hi.cy; cy++ {
			for ct := lo.ct; ct <= hi.ct; ct++ {
				for _, e := range g.loadCell(gridKey{cx, cy, ct}) {
					if box.Contains(e.Point) {
						visit(e)
					}
				}
			}
		}
	}
}

// KNearestUsers implements Index. Cells are visited in expanding
// Chebyshev shells around the query cell; the search stops when the
// closest possible point in the next shell is farther than the current
// k-th best per-user distance. The k-th best distance is maintained
// incrementally by the accumulator, so each shell costs one O(1) bound
// read instead of a heap rebuild over all seen users.
func (g *Grid) KNearestUsers(q geo.STPoint, k int, m geo.STMetric, exclude map[phl.UserID]bool) []UserPoint {
	n, userCount, gmin, gmax := g.snapshotMeta()
	if k <= 0 || n == 0 {
		return nil
	}
	center := g.key(q)
	acc := getKNNAcc(k)
	defer acc.release()

	// When k reaches the whole population the shell search cannot prune
	// (the k-th best distance never materializes) and would sweep the
	// entire — mostly empty — cube. Scan the populated cells directly.
	if k >= userCount {
		for i := range g.shards {
			sh := &g.shards[i]
			sh.mu.RLock()
			for _, entries := range sh.cells {
				for _, e := range entries {
					if exclude[e.User] {
						continue
					}
					acc.offer(e, m.Dist(e.Point, q))
				}
			}
			sh.mu.RUnlock()
		}
		return acc.result()
	}

	maxShell := maxShellFrom(center, gmin, gmax)
	minGap := math.Min(g.cellSize, float64(g.bucketLen)*m.Scale())
	seen := 0 // entries encountered; all populated cells visited => stop
	for s := int64(0); s <= maxShell && seen < n; s++ {
		// One bound read serves both the shell early-exit check and the
		// per-cell prune below.
		bound := acc.bound()
		// Earliest possible distance of any point in shell s: the shell's
		// cells start (s-1) whole cells away in some axis.
		if s > 1 && float64(s-1)*minGap > bound {
			break
		}
		g.visitShell(center, s, func(key gridKey) {
			entries := g.loadCell(key)
			if len(entries) == 0 {
				return
			}
			seen += len(entries)
			if s > 1 && m.DistToBox(q, g.cellBox(key)) > bound {
				return
			}
			for _, e := range entries {
				if exclude[e.User] {
					continue
				}
				acc.offer(e, m.Dist(e.Point, q))
			}
		})
	}
	return acc.result()
}

// maxShellFrom returns the largest Chebyshev shell index that can still
// contain populated cells when centered at c.
func maxShellFrom(c, gmin, gmax gridKey) int64 {
	d := max64(absDiffRange(c.cx, gmin.cx, gmax.cx), absDiffRange(c.cy, gmin.cy, gmax.cy))
	return max64(d, absDiffRange(c.ct, gmin.ct, gmax.ct))
}

func absDiffRange(v, lo, hi int64) int64 {
	return max64(abs64(v-lo), abs64(v-hi))
}

// visitShell calls fn for every cell at Chebyshev distance exactly s
// from c.
func (g *Grid) visitShell(c gridKey, s int64, fn func(gridKey)) {
	if s == 0 {
		fn(c)
		return
	}
	for dx := -s; dx <= s; dx++ {
		for dy := -s; dy <= s; dy++ {
			onFaceXY := abs64(dx) == s || abs64(dy) == s
			if onFaceXY {
				for dt := -s; dt <= s; dt++ {
					fn(gridKey{c.cx + dx, c.cy + dy, c.ct + dt})
				}
			} else {
				fn(gridKey{c.cx + dx, c.cy + dy, c.ct - s})
				fn(gridKey{c.cx + dx, c.cy + dy, c.ct + s})
			}
		}
	}
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
