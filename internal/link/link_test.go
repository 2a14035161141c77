package link

import (
	"testing"
	"testing/quick"

	"histanon/internal/geo"
	"histanon/internal/wire"
)

func req(id int64, pseudo string, x, y float64, t int64) *wire.Request {
	return &wire.Request{
		ID:        wire.MsgID(id),
		Pseudonym: wire.Pseudonym(pseudo),
		Context: geo.STBox{
			Area: geo.RectAround(geo.Point{X: x, Y: y}),
			Time: geo.IntervalAround(t),
		},
	}
}

func TestPseudonymLinker(t *testing.T) {
	var p Pseudonym
	a := req(1, "alpha", 0, 0, 0)
	b := req(2, "alpha", 999, 999, 999)
	c := req(3, "beta", 0, 0, 0)
	if p.Likelihood(a, b) != 1 {
		t.Fatal("same pseudonym must link with likelihood 1")
	}
	if p.Likelihood(a, c) != 0 {
		t.Fatal("different pseudonyms carry no pseudonym-based evidence")
	}
	if p.Likelihood(a, a) != 1 {
		t.Fatal("reflexivity")
	}
}

func TestTrackingReachable(t *testing.T) {
	tr := Tracking{MaxSpeed: 10, HalfLife: 1e9} // effectively no decay
	a := req(1, "p1", 0, 0, 0)
	b := req(2, "p2", 50, 0, 10) // needs 5 m/s, well within 10
	if got := tr.Likelihood(a, b); got < 0.99 {
		t.Fatalf("reachable continuation: likelihood=%g", got)
	}
	c := req(3, "p3", 500, 0, 10) // needs 50 m/s
	if got := tr.Likelihood(a, c); got != 0 {
		t.Fatalf("unreachable: likelihood=%g", got)
	}
	d := req(4, "p4", 150, 0, 10) // needs 15 m/s: between v and 2v
	got := tr.Likelihood(a, d)
	if got <= 0 || got >= 1 {
		t.Fatalf("marginal reachability must be in (0,1): %g", got)
	}
}

func TestTrackingDecay(t *testing.T) {
	tr := Tracking{MaxSpeed: 100, HalfLife: 100}
	a := req(1, "p1", 0, 0, 0)
	near := req(2, "p2", 1, 0, 100) // one half-life later
	got := tr.Likelihood(a, near)
	if got < 0.45 || got > 0.55 {
		t.Fatalf("one half-life: likelihood=%g want ~0.5", got)
	}
	far := req(3, "p3", 1, 0, 1000) // ten half-lives
	if got := tr.Likelihood(a, far); got > 0.01 {
		t.Fatalf("ten half-lives: likelihood=%g", got)
	}
}

func TestTrackingSameInstantDisjoint(t *testing.T) {
	tr := Tracking{MaxSpeed: 10, HalfLife: 100}
	a := req(1, "p1", 0, 0, 50)
	b := req(2, "p2", 100, 0, 50) // same instant, 100 m apart
	if got := tr.Likelihood(a, b); got != 0 {
		t.Fatalf("teleportation must not link: %g", got)
	}
	c := req(3, "p3", 0, 0, 50) // same instant, same place
	if got := tr.Likelihood(a, c); got != 1 {
		t.Fatalf("same place same time: %g", got)
	}
}

func TestTrackingOverlappingBoxes(t *testing.T) {
	tr := Tracking{MaxSpeed: 10, HalfLife: 1e9}
	a := &wire.Request{Pseudonym: "p1", Context: geo.STBox{
		Area: geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},
		Time: geo.Interval{Start: 0, End: 60},
	}}
	b := &wire.Request{Pseudonym: "p2", Context: geo.STBox{
		Area: geo.Rect{MinX: 50, MinY: 50, MaxX: 150, MaxY: 150},
		Time: geo.Interval{Start: 30, End: 90},
	}}
	if got := tr.Likelihood(a, b); got != 1 {
		t.Fatalf("overlapping generalized contexts: %g", got)
	}
}

func TestTrackingSymmetryProperty(t *testing.T) {
	tr := Tracking{MaxSpeed: 12, HalfLife: 300}
	f := func(x1, y1, x2, y2 int16, t1, t2 int32, w1, w2 uint8) bool {
		a := &wire.Request{Pseudonym: "p1", Context: geo.STBox{
			Area: geo.RectAround(geo.Point{X: float64(x1), Y: float64(y1)}).Expand(float64(w1)),
			Time: geo.IntervalAround(int64(t1)),
		}}
		b := &wire.Request{Pseudonym: "p2", Context: geo.STBox{
			Area: geo.RectAround(geo.Point{X: float64(x2), Y: float64(y2)}).Expand(float64(w2)),
			Time: geo.IntervalAround(int64(t2)),
		}}
		la, lb := tr.Likelihood(a, b), tr.Likelihood(b, a)
		return la == lb && la >= 0 && la <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxCombinator(t *testing.T) {
	f := Max{Pseudonym{}, Tracking{MaxSpeed: 10, HalfLife: 100}}
	// Same pseudonym, physically implausible: pseudonym wins.
	a := req(1, "p", 0, 0, 0)
	b := req(2, "p", 1e6, 1e6, 1)
	if got := f.Likelihood(a, b); got != 1 {
		t.Fatalf("Max must take the pseudonym link: %g", got)
	}
	// Different pseudonyms, trackable: tracking wins.
	c := req(3, "q", 5, 0, 10)
	if got := f.Likelihood(a, c); got < 0.9 {
		t.Fatalf("Max must take the tracking link: %g", got)
	}
}

func TestIsLinkConnected(t *testing.T) {
	a := req(1, "p1", 0, 0, 0)
	b := req(2, "p2", 50, 0, 10)
	c := req(3, "p3", 100, 0, 20)
	f := Tracking{MaxSpeed: 10, HalfLife: 1e9}
	// a and c are not directly linkable (100m in 20s = 5 m/s is fine
	// actually; make c farther) — use a sharper chain.
	far := req(4, "p4", 400, 0, 30)
	if !IsLinkConnected([]*wire.Request{a, b, c}, f, 0.9) {
		t.Fatal("chain must be link-connected")
	}
	if IsLinkConnected([]*wire.Request{a, far}, f, 0.9) {
		t.Fatal("a and far require 13 m/s; not linkable at 0.9")
	}
	if !IsLinkConnected(nil, f, 0.9) || !IsLinkConnected([]*wire.Request{a}, f, 0.9) {
		t.Fatal("empty and singleton sets are trivially connected")
	}
}

func TestCorrectLinkProperty(t *testing.T) {
	// The paper's correctness remark: with the pseudonym linker and one
	// pseudonym per user, a set is link-connected at theta=1 iff all
	// requests share the user.
	var f Pseudonym
	same := []*wire.Request{req(1, "u", 0, 0, 0), req(2, "u", 5, 5, 5), req(3, "u", 9, 9, 9)}
	if !IsLinkConnected(same, f, 1) {
		t.Fatal("same-user set must be link-connected at 1")
	}
	mixed := append(same, req(4, "v", 0, 0, 0))
	if IsLinkConnected(mixed, f, 1) {
		t.Fatal("mixed-user set must not be link-connected at 1")
	}
}

func TestMaxPairLikelihood(t *testing.T) {
	f := Tracking{MaxSpeed: 10, HalfLife: 1e9}
	before := []*wire.Request{req(1, "p1", 0, 0, 0), req(2, "p1", 10, 0, 5)}
	afterNear := []*wire.Request{req(3, "p2", 20, 0, 10)}
	afterFar := []*wire.Request{req(4, "p2", 5000, 0, 10)}
	if got := MaxPairLikelihood(before, afterNear, f); got < 0.9 {
		t.Fatalf("near continuation: %g", got)
	}
	if got := MaxPairLikelihood(before, afterFar, f); got != 0 {
		t.Fatalf("far continuation: %g", got)
	}
	if got := MaxPairLikelihood(nil, afterNear, f); got != 0 {
		t.Fatalf("empty set: %g", got)
	}
}

// spanFunc scores a pair by how far apart the two requests' IDs are, so
// the max over a window reveals its first and last request, and it
// records every pair it is asked about.
type spanFunc struct{ pairs [][2]wire.MsgID }

func (f *spanFunc) Likelihood(a, b *wire.Request) float64 {
	f.pairs = append(f.pairs, [2]wire.MsgID{a.ID, b.ID})
	d := a.ID - b.ID
	if d < 0 {
		d = -d
	}
	return float64(d) / 100
}

// segments returns one user's requests, IDs counting from 0 in time
// order, with a pseudonym per segment of the given lengths.
func segments(lens ...int) []*wire.Request {
	var out []*wire.Request
	for s, n := range lens {
		for i := 0; i < n; i++ {
			out = append(out, &wire.Request{ID: wire.MsgID(len(out)), Pseudonym: wire.Pseudonym(rune('a' + s))})
		}
	}
	return out
}

func TestRotationLikelihoodsWindow(t *testing.T) {
	// Two segments of six: the window is the last w requests of the
	// first and the first w of the second, so the widest pair spans
	// 2w−1 IDs.
	for _, w := range []int{3, 4} {
		got := RotationLikelihoods([][]*wire.Request{segments(6, 6)}, w, 0, &spanFunc{})
		if want := float64(2*w-1) / 100; len(got) != 1 || got[0] != want {
			t.Fatalf("w=%d: %v, want [%g]", w, got, want)
		}
	}
}

func TestRotationLikelihoodsShortSegmentStaysInside(t *testing.T) {
	// a a a | b | c c c: each rotation pairs b with its own neighbour
	// only; a and c are never compared.
	reqs := segments(3, 1, 3)
	f := &spanFunc{}
	got := RotationLikelihoods([][]*wire.Request{reqs}, 3, 0, f)
	if want := []float64{0.03, 0.03}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("likelihoods %v, want %v", got, want)
	}
	for _, p := range f.pairs {
		if reqs[p[0]].Pseudonym == "a" && reqs[p[1]].Pseudonym == "c" {
			t.Fatalf("paired request %d under a with request %d under c", p[0], p[1])
		}
	}
}

func TestRotationLikelihoodsLimit(t *testing.T) {
	byUser := [][]*wire.Request{segments(2, 2, 2), segments(1, 1)}
	if got := RotationLikelihoods(byUser, 3, 0, &spanFunc{}); len(got) != 3 {
		t.Fatalf("unlimited: %v, want 3 rotations", got)
	}
	got := RotationLikelihoods(byUser, 3, 2, &spanFunc{})
	if want := []float64{0.03, 0.03}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("limit 2: %v, want the first user's %v", got, want)
	}
}

func TestRotationLikelihoodsNoRotation(t *testing.T) {
	byUser := [][]*wire.Request{segments(5), segments(1), nil}
	if got := RotationLikelihoods(byUser, 3, 0, &spanFunc{}); len(got) != 0 {
		t.Fatalf("no pseudonym change: %v, want none", got)
	}
}
