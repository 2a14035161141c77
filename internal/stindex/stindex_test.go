package stindex

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"histanon/internal/geo"
	"histanon/internal/phl"
)

func rect(a, b, c, d float64) geo.Rect {
	return geo.Rect{MinX: a, MinY: b, MaxX: c, MaxY: d}
}

func iv(a, b int64) geo.Interval { return geo.Interval{Start: a, End: b} }

func pt(x, y float64, t int64) geo.STPoint {
	return geo.STPoint{P: geo.Point{X: x, Y: y}, T: t}
}

func allIndexes() map[string]func() Index {
	return map[string]func() Index{
		"brute": func() Index { return NewBrute() },
		"grid":  func() Index { return NewGrid(100, 300) },
		"rtree": func() Index { return NewRTree() },
	}
}

func fillRandom(idx Index, rng *rand.Rand, users, samples int) {
	for i := 0; i < samples; i++ {
		u := phl.UserID(rng.Intn(users))
		idx.Insert(u, pt(rng.Float64()*2000, rng.Float64()*2000, int64(rng.Intn(7200))))
	}
}

func TestEmptyIndexQueries(t *testing.T) {
	for name, mk := range allIndexes() {
		idx := mk()
		if idx.Len() != 0 {
			t.Errorf("%s: Len=%d", name, idx.Len())
		}
		box := geo.STBox{Area: rect(0, 0, 10, 10), Time: iv(0, 10)}
		if got := idx.UsersInBox(box); len(got) != 0 {
			t.Errorf("%s: UsersInBox on empty = %v", name, got)
		}
		if got := idx.KNearestUsers(pt(0, 0, 0), 3, geo.STMetric{}, nil); len(got) != 0 {
			t.Errorf("%s: KNearestUsers on empty = %v", name, got)
		}
	}
}

func TestUsersInBoxSimple(t *testing.T) {
	for name, mk := range allIndexes() {
		idx := mk()
		idx.Insert(1, pt(10, 10, 100))
		idx.Insert(2, pt(500, 500, 100))
		idx.Insert(3, pt(20, 20, 5000))
		idx.Insert(1, pt(15, 15, 110)) // duplicate user inside the box
		box := geo.STBox{Area: rect(0, 0, 50, 50), Time: iv(0, 200)}
		got := idx.UsersInBox(box)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != 1 || got[0] != 1 {
			t.Errorf("%s: UsersInBox = %v want [1]", name, got)
		}
		if n := idx.CountUsersInBox(box); n != 1 {
			t.Errorf("%s: CountUsersInBox = %d", name, n)
		}
	}
}

func TestUsersInBoxMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	brute := NewBrute()
	others := map[string]Index{"grid": NewGrid(100, 300), "rtree": NewRTree()}
	for i := 0; i < 3000; i++ {
		u := phl.UserID(rng.Intn(60))
		p := pt(rng.Float64()*2000, rng.Float64()*2000, int64(rng.Intn(7200)))
		brute.Insert(u, p)
		for _, idx := range others {
			idx.Insert(u, p)
		}
	}
	for trial := 0; trial < 100; trial++ {
		c := pt(rng.Float64()*2000, rng.Float64()*2000, int64(rng.Intn(7200)))
		w := rng.Float64() * 400
		dt := int64(rng.Intn(1200))
		box := geo.STBox{
			Area: rect(c.P.X-w, c.P.Y-w, c.P.X+w, c.P.Y+w),
			Time: iv(c.T-dt, c.T+dt),
		}
		want := asSet(brute.UsersInBox(box))
		for name, idx := range others {
			got := asSet(idx.UsersInBox(box))
			if !sameSet(want, got) {
				t.Fatalf("%s: UsersInBox mismatch: want %v got %v", name, want, got)
			}
			if n := idx.CountUsersInBox(box); n != len(want) {
				t.Fatalf("%s: CountUsersInBox = %d want %d", name, n, len(want))
			}
		}
	}
}

func TestKNearestUsersMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	brute := NewBrute()
	others := map[string]Index{"grid": NewGrid(150, 450), "rtree": NewRTree()}
	for i := 0; i < 2500; i++ {
		u := phl.UserID(rng.Intn(40))
		p := pt(rng.Float64()*2000, rng.Float64()*2000, int64(rng.Intn(7200)))
		brute.Insert(u, p)
		for _, idx := range others {
			idx.Insert(u, p)
		}
	}
	m := geo.STMetric{TimeScale: 0.5}
	for trial := 0; trial < 60; trial++ {
		q := pt(rng.Float64()*2000, rng.Float64()*2000, int64(rng.Intn(7200)))
		k := 1 + rng.Intn(10)
		exclude := map[phl.UserID]bool{phl.UserID(rng.Intn(40)): true}
		want := brute.KNearestUsers(q, k, m, exclude)
		for name, idx := range others {
			got := idx.KNearestUsers(q, k, m, exclude)
			if len(got) != len(want) {
				t.Fatalf("%s: got %d results want %d", name, len(got), len(want))
			}
			for i := range got {
				wd := m.Dist(want[i].Point, q)
				gd := m.Dist(got[i].Point, q)
				if math.Abs(wd-gd) > 1e-9 {
					t.Fatalf("%s: result %d distance %g want %g", name, i, gd, wd)
				}
				if exclude[got[i].User] {
					t.Fatalf("%s: excluded user %v returned", name, got[i].User)
				}
			}
			// Distinct users in the result.
			seen := map[phl.UserID]bool{}
			for _, e := range got {
				if seen[e.User] {
					t.Fatalf("%s: duplicate user %v in result", name, e.User)
				}
				seen[e.User] = true
			}
		}
	}
}

// TestKNearestUsersMatchesSortReference checks every index against a
// reference that shares no code with knnAcc: each user's closest sample
// kept in a map, then sorted. k runs on both sides of knnScanMax, so
// both the scanned heap and the indexed one churn through thousands of
// offers.
func TestKNearestUsersMatchesSortReference(t *testing.T) {
	const users = 300
	type sample struct {
		u phl.UserID
		p geo.STPoint
	}
	rng := rand.New(rand.NewSource(23))
	data := make([]sample, 6000)
	for i := range data {
		data[i] = sample{phl.UserID(rng.Intn(users)), pt(rng.Float64()*10000, rng.Float64()*10000, int64(rng.Intn(7*86400)))}
	}
	m := geo.STMetric{TimeScale: 0.5}
	exclude := map[phl.UserID]bool{3: true, 150: true}
	reference := func(q geo.STPoint, k int) []UserPoint {
		best := map[phl.UserID]UserPoint{}
		for _, s := range data {
			if b, ok := best[s.u]; !exclude[s.u] && (!ok || m.Dist(s.p, q) < m.Dist(b.Point, q)) {
				best[s.u] = UserPoint{User: s.u, Point: s.p}
			}
		}
		out := make([]UserPoint, 0, len(best))
		for _, up := range best {
			out = append(out, up)
		}
		sort.Slice(out, func(i, j int) bool { return m.Dist(out[i].Point, q) < m.Dist(out[j].Point, q) })
		return out[:min(k, len(out))]
	}
	for name, mk := range allIndexes() {
		idx := mk()
		for _, s := range data {
			idx.Insert(s.u, s.p)
		}
		for _, k := range []int{1, 7, knnScanMax, knnScanMax + 1, 3 * knnScanMax, users} {
			for trial := 0; trial < 4; trial++ {
				q := pt(rng.Float64()*10000, rng.Float64()*10000, int64(rng.Intn(7*86400)))
				if got, want := idx.KNearestUsers(q, k, m, exclude), reference(q, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s k=%d: got %d users, want %d; first difference at %d", name, k, len(got), len(want), firstDiff(got, want))
				}
			}
		}
	}
}

func firstDiff(a, b []UserPoint) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

func TestKNearestFewerUsersThanK(t *testing.T) {
	for name, mk := range allIndexes() {
		idx := mk()
		idx.Insert(1, pt(0, 0, 0))
		idx.Insert(2, pt(10, 10, 10))
		got := idx.KNearestUsers(pt(0, 0, 0), 5, geo.STMetric{}, nil)
		if len(got) != 2 {
			t.Errorf("%s: got %d results want 2", name, len(got))
		}
	}
}

func TestKNearestOrdering(t *testing.T) {
	for name, mk := range allIndexes() {
		idx := mk()
		idx.Insert(1, pt(100, 0, 0))
		idx.Insert(2, pt(10, 0, 0))
		idx.Insert(3, pt(50, 0, 0))
		got := idx.KNearestUsers(pt(0, 0, 0), 3, geo.STMetric{}, nil)
		if len(got) != 3 || got[0].User != 2 || got[1].User != 3 || got[2].User != 1 {
			t.Errorf("%s: ordering wrong: %v", name, got)
		}
	}
}

func TestSmallestEnclosingBox(t *testing.T) {
	for name, mk := range allIndexes() {
		idx := mk()
		// Requester 0 plus four nearby users.
		idx.Insert(1, pt(10, 0, 5))
		idx.Insert(2, pt(0, 20, 10))
		idx.Insert(3, pt(-30, 0, 0))
		idx.Insert(4, pt(1000, 1000, 3000))
		q := pt(0, 0, 0)
		exclude := map[phl.UserID]bool{0: true}
		box, members, ok := SmallestEnclosingBox(idx, q, 3, geo.STMetric{TimeScale: 1}, exclude)
		if !ok {
			t.Fatalf("%s: expected success", name)
		}
		if !box.Contains(q) {
			t.Errorf("%s: box %v must contain the query point", name, box)
		}
		if len(members) != 3 {
			t.Fatalf("%s: got %d members", name, len(members))
		}
		for _, mbr := range members {
			if !box.Contains(mbr.Point) {
				t.Errorf("%s: box misses member %v", name, mbr)
			}
			if mbr.User == 4 {
				t.Errorf("%s: distant user chosen over near ones", name)
			}
		}
		if n := idx.CountUsersInBox(box); n < 3 {
			t.Errorf("%s: box contains only %d users", name, n)
		}
		// Too few users for k=10.
		if _, _, ok := SmallestEnclosingBox(idx, q, 10, geo.STMetric{}, exclude); ok {
			t.Errorf("%s: expected failure with k=10", name)
		}
	}
}

func TestGridNegativeCoordinates(t *testing.T) {
	g := NewGrid(100, 300)
	g.Insert(1, pt(-250, -250, -500))
	g.Insert(2, pt(-10, -10, -5))
	box := geo.STBox{Area: rect(-300, -300, -200, -200), Time: iv(-600, -400)}
	if got := g.UsersInBox(box); len(got) != 1 || got[0] != 1 {
		t.Fatalf("UsersInBox=%v", got)
	}
	got := g.KNearestUsers(pt(-240, -240, -490), 2, geo.STMetric{}, nil)
	if len(got) != 2 || got[0].User != 1 {
		t.Fatalf("KNearestUsers=%v", got)
	}
}

func TestGridPanicsOnBadDimensions(t *testing.T) {
	for _, c := range []struct {
		cell   float64
		bucket int64
	}{{0, 300}, {100, 0}, {100, math.MaxUint32 + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewGrid(%v, %d): expected panic", c.cell, c.bucket)
				}
			}()
			NewGrid(c.cell, c.bucket)
		}()
	}
	NewGrid(100, math.MaxUint32) // the largest bucket an entry's offset can hold
}

func TestLen(t *testing.T) {
	for name, mk := range allIndexes() {
		idx := mk()
		rng := rand.New(rand.NewSource(1))
		fillRandom(idx, rng, 10, 123)
		if idx.Len() != 123 {
			t.Errorf("%s: Len=%d want 123", name, idx.Len())
		}
	}
}

func asSet(ids []phl.UserID) map[phl.UserID]bool {
	s := map[phl.UserID]bool{}
	for _, id := range ids {
		s[id] = true
	}
	return s
}

func sameSet(a, b map[phl.UserID]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func TestGridKNearestAllUsersFast(t *testing.T) {
	// Regression: when k reaches the whole population the shell search
	// must not sweep the empty cube (the data here spans 240 time
	// buckets, so a naive sweep enumerates millions of cells).
	g := NewGrid(500, 1800)
	rng := rand.New(rand.NewSource(13))
	const users = 20
	for i := 0; i < 5000; i++ {
		g.Insert(phl.UserID(rng.Intn(users)), pt(rng.Float64()*8000, rng.Float64()*8000, int64(rng.Intn(5*86400))))
	}
	done := make(chan []UserPoint, 1)
	go func() {
		done <- g.KNearestUsers(pt(4000, 4000, 2*86400), users+10, geo.STMetric{TimeScale: 1}, nil)
	}()
	select {
	case got := <-done:
		if len(got) != users {
			t.Fatalf("got %d users want %d", len(got), users)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("KNearestUsers with k >= population did not terminate promptly")
	}
	// Cross-check against brute force.
	b := NewBrute()
	rng = rand.New(rand.NewSource(13))
	for i := 0; i < 5000; i++ {
		b.Insert(phl.UserID(rng.Intn(users)), pt(rng.Float64()*8000, rng.Float64()*8000, int64(rng.Intn(5*86400))))
	}
	m := geo.STMetric{TimeScale: 1}
	want := b.KNearestUsers(pt(4000, 4000, 2*86400), users+10, m, nil)
	got := g.KNearestUsers(pt(4000, 4000, 2*86400), users+10, m, nil)
	if len(got) != len(want) {
		t.Fatalf("got %d want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(m.Dist(got[i].Point, pt(4000, 4000, 2*86400))-m.Dist(want[i].Point, pt(4000, 4000, 2*86400))) > 1e-9 {
			t.Fatalf("result %d differs from brute force", i)
		}
	}
}

// TestGridInsertBatchMatchesInsert: a grid fed runs through InsertBatch
// holds exactly what one fed the same samples through Insert holds —
// every cell's samples in arrival order, the id table, the sample and
// cell counts and the populated bounds.
func TestGridInsertBatchMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	samples := make([]phl.Sample, 5000)
	for i := range samples {
		// A small extent and few users put many samples of a run into
		// the same cell and shard.
		samples[i] = phl.Sample{
			User:  phl.UserID(rng.Intn(40)),
			Point: pt(rng.Float64()*3000-1500, rng.Float64()*3000-1500, int64(rng.Intn(20000))-5000),
		}
	}
	single, batched := NewGrid(500, 900), NewGrid(500, 900)
	for _, x := range samples {
		single.Insert(x.User, x.Point)
	}
	batched.InsertBatch(nil)
	for rest := samples; len(rest) > 0; {
		n := min(1+rng.Intn(600), len(rest))
		batched.InsertBatch(rest[:n])
		rest = rest[n:]
	}
	for i := range single.shards {
		if !reflect.DeepEqual(single.shards[i].cells, batched.shards[i].cells) {
			t.Fatalf("shard %d cells differ", i)
		}
	}
	if !reflect.DeepEqual(single.meta, batched.meta) || !reflect.DeepEqual(single.index, batched.index) {
		t.Fatalf("bookkeeping differs: %+v / %+v", single.meta, batched.meta)
	}
}

// TestGridKNearestFarOutlier: while fewer than k users are known the
// shell walk cannot prune, so a k-th user far away in space or time
// would make it look up every cell of a cube that reaches them — at
// 1,000 km or a year, over half an hour of empty cells. The walk must
// give way to a sweep of the populated cells, both when they are few
// and when five users' histories populate thousands of them.
func TestGridKNearestFarOutlier(t *testing.T) {
	m := geo.STMetric{TimeScale: 1}
	q := pt(0, 0, 0)
	exclude := map[phl.UserID]bool{1: true} // the issuer
	for _, c := range []struct {
		name    string
		far     geo.STPoint
		samples int // per nearby user
	}{
		{"space", pt(1e6, 0, 0), 1},
		{"time", pt(0, 0, 365*86400), 1},
		{"space/crowd", pt(1e6, 0, 0), 1500},
		{"time/crowd", pt(0, 0, 365*86400), 1500},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, ref := NewGrid(500, 900), NewBrute()
			rng := rand.New(rand.NewSource(19))
			for u := 1; u <= 5; u++ {
				for i := 0; i < c.samples; i++ {
					p := pt(float64(u)*100, float64(u)*50, int64(u)*60)
					if i > 0 {
						p = pt(rng.Float64()*20000-10000, rng.Float64()*20000-10000, int64(rng.Intn(86400)))
					}
					g.Insert(phl.UserID(u), p)
					ref.Insert(phl.UserID(u), p)
				}
			}
			g.Insert(6, c.far)
			ref.Insert(6, c.far)
			if c.samples > 1 && g.meta.cells < 5000 {
				t.Fatalf("the crowd populates only %d cells", g.meta.cells)
			}
			done := make(chan []UserPoint, 1)
			go func() { done <- g.KNearestUsers(q, 5, m, exclude) }()
			var got []UserPoint
			select {
			case got = <-done:
			case <-time.After(time.Second):
				t.Fatal("KNearestUsers with a far k-th user did not answer within a second")
			}
			if want := ref.KNearestUsers(q, 5, m, exclude); !reflect.DeepEqual(got, want) {
				t.Fatalf("got %v, want %v", got, want)
			}
			if got[4].User != 6 {
				t.Fatalf("the far user is not the 5th nearest: %v", got)
			}
		})
	}
}

// TestGridKNearestSweepTiesFollowWalk: when the walk gives way to a
// sweep, and when k reaches the population so that only the sweep runs,
// cells are taken in the walk's order. Of two samples at exactly equal
// distance the walk's first one wins, whatever order the cell map
// iterates in: between two users, and between one user's two samples.
func TestGridKNearestSweepTiesFollowWalk(t *testing.T) {
	m := geo.STMetric{TimeScale: 1}
	q := pt(250, 250, 450)
	east, west := pt(1250, 250, 450), pt(-750, 250, 450) // shell 2; west is walked first
	far := pt(250, 250, 9e6)
	for i := 0; i < 20; i++ {
		g := NewGrid(500, 900)
		g.Insert(1, east)
		g.Insert(2, west)
		g.Insert(3, far)
		if got := g.KNearestUsers(q, 1, m, nil); len(got) != 1 || got[0].User != 2 {
			t.Fatalf("run %d: got %v, want user 2, the walk's first of the tie", i, got)
		}
		g = NewGrid(500, 900)
		g.Insert(1, east)
		g.Insert(1, west)
		g.Insert(2, far)
		if got := g.KNearestUsers(q, 2, m, nil); len(got) != 2 || got[0].Point != west {
			t.Fatalf("run %d: got %v, want user 1 at %v, the walk's first of the tie", i, got, west)
		}
	}
}

// TestGridKNearestAllocBudget pins the pooled accumulator: a grid KNN
// allocates only its result slice, on the shell walk with a scanned
// and an indexed heap, on the walk that finishes with a sweep and on
// the all-users sweep.
func TestGridKNearestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const users = 400
	g := NewGrid(500, 1800)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20000; i++ {
		g.Insert(phl.UserID(rng.Intn(users)), pt(rng.Float64()*8000, rng.Float64()*8000, int64(rng.Intn(14*24*3600))))
	}
	g.Insert(users, pt(1e6, 0, 0))
	m := geo.STMetric{TimeScale: 1}
	exclude := map[phl.UserID]bool{7: true}
	for _, k := range []int{5, knnScanMax + 8, users, users + 2} {
		rng := rand.New(rand.NewSource(int64(k)))
		allocs := testing.AllocsPerRun(200, func() {
			q := pt(rng.Float64()*8000, rng.Float64()*8000, int64(rng.Intn(14*24*3600)))
			g.KNearestUsers(q, k, m, exclude)
		})
		if allocs != 1 {
			t.Errorf("k=%d: KNearestUsers allocates %v times per query, want 1 (the result)", k, allocs)
		}
	}
}
