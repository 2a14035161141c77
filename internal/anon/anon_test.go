package anon

import (
	"testing"

	"histanon/internal/geo"
	"histanon/internal/phl"
)

func pt(x, y float64, t int64) geo.STPoint {
	return geo.STPoint{P: geo.Point{X: x, Y: y}, T: t}
}

func box(x1, y1, x2, y2 float64, t1, t2 int64) geo.STBox {
	return geo.STBox{
		Area: geo.Rect{MinX: x1, MinY: y1, MaxX: x2, MaxY: y2},
		Time: geo.Interval{Start: t1, End: t2},
	}
}

// commuteStore builds a store where users 1,2,3 share a home area at
// t≈100 but only 1,2 reach the office at t≈200, and user 4 is elsewhere.
func commuteStore() *phl.Store {
	s := phl.NewStore()
	s.Record(1, pt(10, 10, 100))
	s.Record(1, pt(500, 500, 200))
	s.Record(2, pt(12, 12, 105))
	s.Record(2, pt(505, 505, 205))
	s.Record(3, pt(8, 8, 95))
	s.Record(3, pt(900, 0, 200))
	s.Record(4, pt(700, 700, 100))
	return s
}

var (
	homeBox   = box(0, 0, 20, 20, 90, 110)
	officeBox = box(490, 490, 510, 510, 190, 210)
)

func TestHistoricalLevel(t *testing.T) {
	s := commuteStore()
	series := []geo.STBox{homeBox, officeBox}
	// Issuer 1: itself plus witness 2.
	if got := HistoricalLevel(s, 1, series); got != 2 {
		t.Fatalf("level for issuer 1 = %d", got)
	}
	// A hypothetical issuer not in the store: both consistent users are
	// witnesses.
	if got := HistoricalLevel(s, 99, series); got != 3 {
		t.Fatalf("level for external issuer = %d", got)
	}
	// Single home request: issuer 1 plus witnesses 2 and 3.
	if got := HistoricalLevel(s, 1, []geo.STBox{homeBox}); got != 3 {
		t.Fatalf("single-request level = %d", got)
	}
}

func TestSatisfiesHistoricalK(t *testing.T) {
	s := commuteStore()
	series := []geo.STBox{homeBox, officeBox}
	if !SatisfiesHistoricalK(s, 1, series, 2) {
		t.Fatal("k=2 must hold: user 2 is a witness")
	}
	if SatisfiesHistoricalK(s, 1, series, 3) {
		t.Fatal("k=3 must fail: only one witness")
	}
	if !SatisfiesHistoricalK(s, 1, series, 1) || !SatisfiesHistoricalK(s, 1, nil, 1) {
		t.Fatal("k<=1 always holds")
	}
	if !SatisfiesHistoricalK(s, 1, nil, 4) {
		t.Fatal("empty series: every user is consistent")
	}
}

func TestLongerSeriesShrinksAnonymity(t *testing.T) {
	// The paper's core observation: each added context can only shrink
	// the historical anonymity set.
	s := commuteStore()
	lvl1 := HistoricalLevel(s, 1, []geo.STBox{homeBox})
	lvl2 := HistoricalLevel(s, 1, []geo.STBox{homeBox, officeBox})
	if lvl2 > lvl1 {
		t.Fatalf("anonymity grew with trace length: %d -> %d", lvl1, lvl2)
	}
}
