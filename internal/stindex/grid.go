package stindex

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"histanon/internal/geo"
	"histanon/internal/phl"
)

// gridShardCount is the number of cell-map shards (power of two). With
// hash-sharded locking, concurrent inserts into different cells and
// concurrent readers contend only when they hash to the same shard.
const gridShardCount = 64

// gridEntry is one sample in a cell, in 24 bytes. Its time is the
// cell's bucket start plus dt, exactly: floorDiv keeps dt in
// [0, bucketLen), and NewGrid bounds bucketLen by MaxUint32. Its user
// is ids[u] in the grid's id table.
type gridEntry struct {
	x, y float64
	dt   uint32
	u    uint32
}

// gridShard holds one slice of the cell map under its own lock.
type gridShard struct {
	mu    sync.RWMutex
	cells map[gridKey][]gridEntry
}

// gridMeta is the cross-shard bookkeeping a query snapshots.
type gridMeta struct {
	n     int          // samples
	cells int          // populated cells
	ids   []phl.UserID // user by entry index; append-only
	// Observed cell-coordinate bounds let shell expansion terminate when
	// the whole populated grid has been visited.
	min, max gridKey
}

// Grid is a sparse uniform grid over space and time: samples hash into
// cells of CellSize×CellSize meters and BucketLen seconds. Box queries
// touch only overlapping cells; nearest-user queries expand outward in
// shells until the running k-th best distance prunes the frontier.
//
// Concurrency: the cell map is split into gridShardCount shards, each
// guarded by its own RWMutex, so inserts and queries touching different
// shards proceed fully in parallel; global bookkeeping (sample count,
// id table, populated bounds) sits behind a separate narrow RWMutex.
// Cell payload slices and the id table are append-only: a reader that
// snapshot a slice header under its lock can keep reading its elements
// after releasing the lock, because concurrent appends never mutate
// published elements.
//
// Queries racing Inserts are best-effort in one bounded way: an insert
// assigns its users' ids before it writes any cell, so a query skips
// every entry whose id is newer than its snapshot of the id table, and
// its shell walk stops at that snapshot's populated bounds. A query
// therefore sees every sample inserted before it took its snapshot and
// may see or miss one inserted mid-query, but never resolves an entry
// to a user its snapshot lacks. Any missed nearby witness only makes
// Algorithm 1 pick a farther one — a conservative, privacy-preserving
// error direction.
type Grid struct {
	cellSize  float64
	bucketLen int64
	shards    [gridShardCount]gridShard

	// metaMu guards meta and index.
	metaMu sync.RWMutex
	meta   gridMeta
	index  map[phl.UserID]uint32 // entry index by user
}

type gridKey struct {
	cx, cy, ct int64
}

// NewGrid returns an empty grid index with the given spatial cell size
// (meters) and temporal bucket length (seconds). Both must be positive,
// and the bucket length must fit a uint32.
func NewGrid(cellSize float64, bucketLen int64) *Grid {
	if cellSize <= 0 || bucketLen <= 0 {
		panic("stindex: grid cell dimensions must be positive")
	}
	if bucketLen > math.MaxUint32 {
		panic("stindex: grid bucket length must not exceed MaxUint32 seconds")
	}
	g := &Grid{
		cellSize:  cellSize,
		bucketLen: bucketLen,
		index:     make(map[phl.UserID]uint32),
	}
	for i := range g.shards {
		g.shards[i].cells = make(map[gridKey][]gridEntry)
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

// entry encodes a sample of the user with id u into cell k.
func (g *Grid) entry(k gridKey, u uint32, p geo.STPoint) gridEntry {
	return gridEntry{x: p.P.X, y: p.P.Y, dt: uint32(p.T - k.ct*g.bucketLen), u: u}
}

// point decodes an entry of the cell whose bucket starts at t0.
func (e gridEntry) point(t0 int64) geo.STPoint {
	return geo.STPoint{P: geo.Point{X: e.x, Y: e.y}, T: t0 + int64(e.dt)}
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
func (g *Grid) loadCell(k gridKey) []gridEntry {
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

// idOf returns u's index in the id table, adding u when new. Caller
// holds metaMu.
func (g *Grid) idOf(u phl.UserID) uint32 {
	id, ok := g.index[u]
	if !ok {
		if len(g.meta.ids) == math.MaxUint32 {
			panic("stindex: grid id table full")
		}
		id = uint32(len(g.meta.ids))
		g.index[u] = id
		g.meta.ids = append(g.meta.ids, u)
	}
	return id
}

// Insert implements Index.
func (g *Grid) Insert(u phl.UserID, p geo.STPoint) {
	k := g.key(p)
	g.metaMu.Lock()
	id := g.idOf(u)
	g.metaMu.Unlock()

	sh := g.shardOf(k)
	sh.mu.Lock()
	before := len(sh.cells)
	sh.cells[k] = append(sh.cells[k], g.entry(k, id, p))
	fresh := len(sh.cells) - before
	sh.mu.Unlock()

	g.metaMu.Lock()
	g.grow(k, k, 1, fresh)
	g.metaMu.Unlock()
}

// grow counts n new samples, fresh of them in new cells, whose cells
// span lo..hi into the populated bounds. Caller holds metaMu.
func (g *Grid) grow(lo, hi gridKey, n, fresh int) {
	m := &g.meta
	if m.n == 0 {
		m.min, m.max = lo, hi
	} else {
		m.min = gridKey{min64(m.min.cx, lo.cx), min64(m.min.cy, lo.cy), min64(m.min.ct, lo.ct)}
		m.max = gridKey{max64(m.max.cx, hi.cx), max64(m.max.cy, hi.cy), max64(m.max.ct, hi.ct)}
	}
	m.n += n
	m.cells += fresh
}

// gridBatch holds InsertBatch's working arrays, pooled across calls:
// each sample's cell key and user id, and the run's sample indexes
// bucketed by shard.
type gridBatch struct {
	keys  []gridKey
	ids   []uint32
	order []int32
}

var gridBatchPool = sync.Pool{New: func() any { return new(gridBatch) }}

// InsertBatch inserts a run of samples, as Insert would one at a time,
// taking each touched shard's lock once and metaMu twice. A stable
// counting sort buckets the run by shard, so every cell receives its
// samples in run order.
func (g *Grid) InsertBatch(samples []phl.Sample) {
	n := len(samples)
	if n == 0 {
		return
	}
	b := gridBatchPool.Get().(*gridBatch)
	defer gridBatchPool.Put(b)
	if cap(b.keys) < n {
		b.keys, b.ids, b.order = make([]gridKey, n), make([]uint32, n), make([]int32, n)
	}
	keys, ids, order := b.keys[:n], b.ids[:n], b.order[:n]

	g.metaMu.Lock()
	for i, x := range samples {
		ids[i] = g.idOf(x.User)
	}
	g.metaMu.Unlock()

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
	fresh := 0
	for s := 0; s < gridShardCount; s++ {
		if start[s] == start[s+1] {
			continue
		}
		sh := &g.shards[s]
		sh.mu.Lock()
		before := len(sh.cells)
		for _, i := range order[start[s]:start[s+1]] {
			k := keys[i]
			sh.cells[k] = append(sh.cells[k], g.entry(k, ids[i], samples[i].Point))
		}
		fresh += len(sh.cells) - before
		sh.mu.Unlock()
	}

	g.metaMu.Lock()
	g.grow(lo, hi, n, fresh)
	g.metaMu.Unlock()
}

// Len implements Index.
func (g *Grid) Len() int {
	g.metaMu.RLock()
	defer g.metaMu.RUnlock()
	return g.meta.n
}

// snapshotMeta reads the cross-shard bookkeeping consistently.
func (g *Grid) snapshotMeta() gridMeta {
	g.metaMu.RLock()
	defer g.metaMu.RUnlock()
	return g.meta
}

// UsersInBox implements Index.
func (g *Grid) UsersInBox(box geo.STBox) []phl.UserID {
	seen := getSeen()
	defer putSeen(seen)
	var out []phl.UserID
	g.scanBox(box, func(u phl.UserID) {
		if !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	})
	return out
}

// CountUsersInBox implements Index.
func (g *Grid) CountUsersInBox(box geo.STBox) int {
	seen := getSeen()
	defer putSeen(seen)
	n := 0
	g.scanBox(box, func(u phl.UserID) {
		if !seen[u] {
			seen[u] = true
			n++
		}
	})
	return n
}

// scanBox calls visit with the user of every sample in box.
func (g *Grid) scanBox(box geo.STBox, visit func(phl.UserID)) {
	meta := g.snapshotMeta()
	if meta.n == 0 {
		return
	}
	lo := g.key(geo.STPoint{P: geo.Point{X: box.Area.MinX, Y: box.Area.MinY}, T: box.Time.Start})
	hi := g.key(geo.STPoint{P: geo.Point{X: box.Area.MaxX, Y: box.Area.MaxY}, T: box.Time.End})
	// Clamp to the populated region so huge query boxes stay cheap.
	lo.cx, hi.cx = max64(lo.cx, meta.min.cx), min64(hi.cx, meta.max.cx)
	lo.cy, hi.cy = max64(lo.cy, meta.min.cy), min64(hi.cy, meta.max.cy)
	lo.ct, hi.ct = max64(lo.ct, meta.min.ct), min64(hi.ct, meta.max.ct)
	for cx := lo.cx; cx <= hi.cx; cx++ {
		for cy := lo.cy; cy <= hi.cy; cy++ {
			for ct := lo.ct; ct <= hi.ct; ct++ {
				t0 := ct * g.bucketLen
				for _, e := range g.loadCell(gridKey{cx, cy, ct}) {
					if int(e.u) < len(meta.ids) && box.Contains(e.point(t0)) {
						visit(meta.ids[e.u])
					}
				}
			}
		}
	}
}

// gridKNN is one KNearestUsers query in progress.
type gridKNN struct {
	g       *Grid
	q       geo.STPoint
	m       geo.STMetric
	exclude map[phl.UserID]bool
	ids     []phl.UserID // the query's snapshot of the id table
	acc     *knnAcc
}

// KNearestUsers implements Index. Cells are visited in expanding
// Chebyshev shells around the query cell; the search stops when the
// closest possible point in the next shell is farther than the current
// k-th best per-user distance. The k-th best distance is maintained
// incrementally by the accumulator and read live: a cell farther than
// it is skipped before its shard is locked, and a sample farther than
// it before its user is resolved.
//
// While fewer than k users are known nothing prunes, so the walk's cost
// grows with the cube of the k-th user's distance in cells. Once the
// cube through the next shell would hold more cells than the grid has
// populated, the walk has looked up at most one sweep's worth of cells:
// it finishes by sorting the remaining populated cells into its own
// visiting order instead, and the answer is the walk's.
func (g *Grid) KNearestUsers(q geo.STPoint, k int, m geo.STMetric, exclude map[phl.UserID]bool) []UserPoint {
	meta := g.snapshotMeta()
	if k <= 0 || meta.n == 0 {
		return nil
	}
	s := gridKNN{g: g, q: q, m: m, exclude: exclude, ids: meta.ids, acc: getKNNAcc(k)}
	defer s.acc.release()
	center := g.key(q)

	// When k reaches the whole population the k-th best distance never
	// materializes, so nothing prunes and every populated cell is
	// needed: take them all in walk order.
	if k >= len(meta.ids) {
		s.finishWalk(center, 0)
		return s.acc.result()
	}

	maxShell := maxShellFrom(center, meta.min, meta.max)
	minGap := math.Min(g.cellSize, float64(g.bucketLen)*m.Scale())
	for sh := int64(0); sh <= maxShell; sh++ {
		// Earliest possible distance of any point in shell sh: the
		// shell's cells start (sh-1) whole cells away in some axis.
		if sh > 1 && float64(sh-1)*minGap > s.acc.bound() {
			break
		}
		if side := 2*sh + 1; side*side*side > int64(meta.cells) {
			s.finishWalk(center, sh)
			break
		}
		g.visitShell(center, sh, func(key gridKey) {
			if !s.prunes(key) {
				s.scan(key, g.loadCell(key))
			}
		})
	}
	return s.acc.result()
}

// prunes reports whether every point of the cell is farther than the
// current k-th best distance. It compares squares, which spares the
// walk two Hypot calls per cell, and keeps a relative margin far above
// rounding error, so it never prunes a cell that holds a sample closer
// than the bound.
func (s *gridKNN) prunes(key gridKey) bool {
	b := s.acc.bound()
	if b == inf {
		return false
	}
	box := s.g.cellBox(key)
	q := s.q
	dx := math.Max(0, math.Max(box.Area.MinX-q.P.X, q.P.X-box.Area.MaxX))
	dy := math.Max(0, math.Max(box.Area.MinY-q.P.Y, q.P.Y-box.Area.MaxY))
	var dt float64
	switch {
	case q.T < box.Time.Start:
		dt = float64(box.Time.Start-q.T) * s.m.Scale()
	case q.T > box.Time.End:
		dt = float64(q.T-box.Time.End) * s.m.Scale()
	}
	return dx*dx+dy*dy+dt*dt > b*b*(1+1e-9)
}

// scan offers a cell's entries. Each is dropped on its distance first,
// then when its user is newer than the query's id snapshot (a racing
// insert) or excluded.
func (s *gridKNN) scan(key gridKey, entries []gridEntry) {
	t0 := key.ct * s.g.bucketLen
	for _, e := range entries {
		p := e.point(t0)
		d := s.m.Dist(p, s.q)
		if !s.acc.admits(d) || int(e.u) >= len(s.ids) {
			continue
		}
		if u := s.ids[e.u]; !s.exclude[u] {
			s.acc.offer(UserPoint{User: u, Point: p}, d)
		}
	}
}

// gridCell is one populated cell finishWalk collected, with its shell.
type gridCell struct {
	shell   int64
	key     gridKey
	entries []gridEntry
}

var gridCellsPool = sync.Pool{New: func() any { return new([]gridCell) }}

// finishWalk scans the populated cells the walk around c has not
// reached, those in shells from and beyond, in the order the walk
// would have visited them, so ties resolve as the walk's would.
func (s *gridKNN) finishWalk(c gridKey, from int64) {
	buf := gridCellsPool.Get().(*[]gridCell)
	cells := (*buf)[:0]
	for i := range s.g.shards {
		sh := &s.g.shards[i]
		sh.mu.RLock()
		for key, entries := range sh.cells {
			if shell := chebyshev(c, key); shell >= from && !s.prunes(key) {
				cells = append(cells, gridCell{shell, key, entries})
			}
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(cells, cmpWalk)
	for _, cell := range cells {
		if !s.prunes(cell.key) {
			s.scan(cell.key, cell.entries)
		}
	}
	clear(cells) // the pool must not keep the grid's cells alive
	*buf = cells[:0]
	gridCellsPool.Put(buf)
}

// chebyshev returns the shell index of cell k around c.
func chebyshev(c, k gridKey) int64 {
	return max64(max64(abs64(k.cx-c.cx), abs64(k.cy-c.cy)), abs64(k.ct-c.ct))
}

// cmpWalk orders cells as the shell walk visits them: by shell, then
// by x, y and t (visitShell's loop order).
func cmpWalk(a, b gridCell) int {
	switch {
	case a.shell != b.shell:
		return cmp.Compare(a.shell, b.shell)
	case a.key.cx != b.key.cx:
		return cmp.Compare(a.key.cx, b.key.cx)
	case a.key.cy != b.key.cy:
		return cmp.Compare(a.key.cy, b.key.cy)
	}
	return cmp.Compare(a.key.ct, b.key.ct)
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
