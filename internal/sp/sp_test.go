package sp

import (
	"sync"
	"testing"

	"histanon/internal/geo"
	"histanon/internal/link"
	"histanon/internal/phl"
	"histanon/internal/wire"
)

func pt(x, y float64, t int64) geo.STPoint {
	return geo.STPoint{P: geo.Point{X: x, Y: y}, T: t}
}

func reqAt(id int64, pseudo string, box geo.STBox) *wire.Request {
	return &wire.Request{ID: wire.MsgID(id), Pseudonym: wire.Pseudonym(pseudo), Context: box}
}

func box(x1, y1, x2, y2 float64, t1, t2 int64) geo.STBox {
	return geo.STBox{
		Area: geo.Rect{MinX: x1, MinY: y1, MaxX: x2, MaxY: y2},
		Time: geo.Interval{Start: t1, End: t2},
	}
}

func TestProviderRecords(t *testing.T) {
	p := NewProvider()
	p.Deliver(reqAt(1, "a", box(0, 0, 1, 1, 0, 1)))
	p.Deliver(reqAt(2, "b", box(0, 0, 1, 1, 0, 1)))
	p.Deliver(reqAt(3, "a", box(0, 0, 1, 1, 0, 1)))
	if got := p.Requests(); len(got) != 3 || got[0].ID != 1 || got[2].ID != 3 {
		t.Fatalf("Requests=%v", got)
	}
}

func TestProviderConcurrent(t *testing.T) {
	p := NewProvider()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p.Deliver(reqAt(int64(g*1000+i), "x", box(0, 0, 1, 1, 0, 1)))
			}
		}(g)
	}
	wg.Wait()
	if len(p.Requests()) != 4000 {
		t.Fatalf("recorded %d", len(p.Requests()))
	}
}

// knowledge builds a PHL store: user 1 commutes home→office, user 2
// shares only the home area, user 3 is elsewhere.
func knowledge() *phl.Store {
	s := phl.NewStore()
	s.Record(1, pt(10, 10, 100))
	s.Record(1, pt(500, 500, 200))
	s.Record(2, pt(12, 12, 100))
	s.Record(3, pt(900, 900, 100))
	return s
}

func TestCandidateUsers(t *testing.T) {
	// The home box alone is shared by users 1 and 2; the full commute
	// singles out user 1.
	home := box(0, 0, 20, 20, 90, 110)
	office := box(490, 490, 510, 510, 190, 210)
	rep := Score(knowledge(), []Series{
		{Issuer: 1, Boxes: []geo.STBox{home}},
		{Issuer: 1, Boxes: []geo.STBox{home, office}},
	})
	if got := rep.Groups[0].Candidates; len(got) != 2 {
		t.Fatalf("home candidates=%v", got)
	}
	if got := rep.Groups[1].Candidates; len(got) != 1 || got[0] != 1 {
		t.Fatalf("series candidates=%v", got)
	}
}

func TestAttackByPseudonym(t *testing.T) {
	log := []Logged{
		// Pseudonym "x": the full commute — identifies user 1.
		{Issuer: 1, Req: reqAt(1, "x", box(0, 0, 20, 20, 90, 110))},
		{Issuer: 1, Req: reqAt(2, "x", box(490, 490, 510, 510, 190, 210))},
		// Pseudonym "y": home only — ambiguous between users 1 and 2.
		{Issuer: 2, Req: reqAt(3, "y", box(0, 0, 20, 20, 90, 110))},
	}
	series, _ := Split(log, 10)
	rep := Score(knowledge(), series)
	if len(rep.Groups) != 2 {
		t.Fatalf("groups=%d", len(rep.Groups))
	}
	if rep.IdentifiedGroups() != 1 {
		t.Fatalf("identified=%d", rep.IdentifiedGroups())
	}
	if rep.MinAnonymity() != 1 {
		t.Fatalf("min anonymity=%d", rep.MinAnonymity())
	}
	if got := rep.MeanAnonymity(); got != 1.5 {
		t.Fatalf("mean anonymity=%g", got)
	}
	for _, g := range rep.Groups {
		if g.Identified && (len(g.Candidates) != 1 || g.Candidates[0] != 1) {
			t.Fatalf("wrong identification: %+v", g)
		}
	}
}

func TestAttackSeries(t *testing.T) {
	rep := Score(knowledge(), []Series{
		{Issuer: 1, Boxes: []geo.STBox{box(0, 0, 20, 20, 90, 110)}},
	})
	if g := rep.Groups[0]; g.Identified || len(g.Candidates) != 2 || g.Requests != 1 {
		t.Fatalf("series report: %+v", g)
	}
}

func TestAttackWithTrackingLinker(t *testing.T) {
	// A pseudonym change without spatial mixing: tracking links the two
	// pseudonyms, and the series joined across the rotation identifies
	// user 1 although neither half does.
	store := phl.NewStore()
	store.Record(1, pt(0, 0, 0))
	store.Record(1, pt(100, 0, 50))
	store.Record(2, pt(5, 5, 0)) // shares the first area only
	store.Record(2, pt(900, 900, 50))
	store.Record(3, pt(-900, -900, 0))
	store.Record(3, pt(95, 5, 50)) // shares the second area only

	old := reqAt(1, "old", box(-10, -10, 10, 10, 0, 5))
	cur := reqAt(2, "new", box(90, -10, 110, 10, 45, 55))
	tracker := link.Max{link.Pseudonym{}, link.Tracking{MaxSpeed: 10, HalfLife: 1e6}}
	if !link.IsLinkConnected([]*wire.Request{old, cur}, tracker, 0.8) {
		t.Fatal("tracking must link the two pseudonyms at 0.8")
	}
	rep := Score(store, []Series{
		{Issuer: 1, Boxes: []geo.STBox{old.Context}},
		{Issuer: 1, Boxes: []geo.STBox{cur.Context}},
		{Issuer: 1, Boxes: []geo.STBox{old.Context, cur.Context}},
	})
	for _, g := range rep.Groups[:2] {
		if g.Identified || len(g.Candidates) != 2 {
			t.Fatalf("each half must leave two candidates: %+v", g)
		}
	}
	if g := rep.Groups[2]; !g.Identified {
		t.Fatalf("the joined series must identify user 1: %+v", g)
	}
}

func TestProviderRespond(t *testing.T) {
	p := NewProvider()
	var returned []*wire.Response
	p.Respond(map[string]Logic{
		"echo": LogicFunc(func(r *wire.Request) map[string]string {
			return map[string]string{"id": string(r.Pseudonym)}
		}),
	}, func(r *wire.Response) { returned = append(returned, r) })

	r1 := reqAt(1, "alpha", box(0, 0, 1, 1, 0, 1))
	r1.Service = "echo"
	p.Deliver(r1)
	p.Deliver(&wire.Request{ID: 2, Pseudonym: "beta", Service: "other"})
	if len(returned) != 1 {
		t.Fatalf("returned %d responses", len(returned))
	}
	if returned[0].ID != 1 || returned[0].Payload["id"] != "alpha" {
		t.Fatalf("response: %+v", returned[0])
	}
	// Both requests were still recorded for the attack log.
	if len(p.Requests()) != 2 {
		t.Fatalf("recorded %d", len(p.Requests()))
	}
}

func TestWeightedSkewedPosterior(t *testing.T) {
	// User 1 has many samples inside the box; user 2 barely grazes it:
	// the posterior must favor user 1.
	store := phl.NewStore()
	for i := 0; i < 20; i++ {
		store.Record(1, pt(10, 10, int64(100+i)))
	}
	store.Record(2, pt(10, 10, 105))
	rep := Weighted(store, []geo.STBox{box(0, 0, 20, 20, 90, 130)})
	if len(rep.Candidates) != 2 {
		t.Fatalf("candidates: %v", rep.Candidates)
	}
	if rep.Candidates[0] != 1 || rep.TopConfidence < 0.8 {
		t.Fatalf("skew not detected: %+v", rep)
	}
	if rep.EffectiveK >= 2 {
		t.Fatalf("effective k must be < nominal 2: %g", rep.EffectiveK)
	}
}

func TestWeightedUniformPosterior(t *testing.T) {
	// Symmetric candidates: posterior uniform, effective k = nominal k.
	store := phl.NewStore()
	for u := phl.UserID(1); u <= 4; u++ {
		for i := 0; i < 5; i++ {
			store.Record(u, pt(10, 10, int64(100+i)))
		}
	}
	rep := Weighted(store, []geo.STBox{box(0, 0, 20, 20, 90, 130)})
	if len(rep.Candidates) != 4 {
		t.Fatalf("candidates: %v", rep.Candidates)
	}
	if rep.EffectiveK < 3.9 || rep.EffectiveK > 4.01 {
		t.Fatalf("uniform effective k: %g", rep.EffectiveK)
	}
	if rep.TopConfidence > 0.26 {
		t.Fatalf("top confidence: %g", rep.TopConfidence)
	}
	// Posterior sums to 1.
	sum := 0.0
	for _, p := range rep.Posterior {
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("posterior sum: %g", sum)
	}
}

func TestWeightedEmpty(t *testing.T) {
	rep := Weighted(phl.NewStore(), []geo.STBox{box(0, 0, 1, 1, 0, 1)})
	if len(rep.Candidates) != 0 || rep.EffectiveK != 0 {
		t.Fatalf("empty report: %+v", rep)
	}
}

func TestWeightedMultiBoxSeries(t *testing.T) {
	// Two boxes: user 1 dense in both; user 2 dense in the first only.
	store := phl.NewStore()
	for i := 0; i < 10; i++ {
		store.Record(1, pt(10, 10, int64(100+i)))
		store.Record(1, pt(500, 500, int64(200+i)))
		store.Record(2, pt(10, 10, int64(100+i)))
	}
	store.Record(2, pt(500, 500, 205))
	rep := Weighted(store, []geo.STBox{
		box(0, 0, 20, 20, 90, 130),
		box(490, 490, 510, 510, 190, 230),
	})
	if rep.Candidates[0] != 1 {
		t.Fatalf("user 1 must lead: %+v", rep)
	}
	if rep.TopConfidence < 0.7 {
		t.Fatalf("series evidence must accumulate: %g", rep.TopConfidence)
	}
}

// scriptedStore answers LTConsistentUsers with the candidates scripted
// for the series whose first box starts at that instant.
type scriptedStore map[int64][]phl.UserID

func (s scriptedStore) LTConsistentUsers(boxes []geo.STBox) []phl.UserID {
	return s[boxes[0].Time.Start]
}

func series(issuer phl.UserID, start int64) Series {
	return Series{Issuer: issuer, Boxes: []geo.STBox{box(0, 0, 1, 1, start, start+1)}}
}

func TestScoreSingleCandidateMustBeTheIssuer(t *testing.T) {
	rep := Score(scriptedStore{10: {2}, 20: {1}}, []Series{series(1, 10), series(1, 20)})
	if rep.Groups[0].Identified {
		t.Fatalf("a lone candidate other than the issuer identified the series: %+v", rep.Groups[0])
	}
	if !rep.Groups[1].Identified || rep.Groups[1].Issuer != 1 {
		t.Fatalf("the issuer alone must identify the series: %+v", rep.Groups[1])
	}
	if rep.IdentifiedGroups() != 1 {
		t.Fatalf("identified = %d, want 1", rep.IdentifiedGroups())
	}
}

func TestScoreAggregates(t *testing.T) {
	kn := scriptedStore{10: {1}, 20: {2, 3, 4, 5}, 30: {3, 4}, 40: nil}
	rep := Score(kn, []Series{series(1, 10), series(2, 20), series(3, 30), series(4, 40)})
	if len(rep.Groups) != 4 || rep.Groups[1].Requests != 1 {
		t.Fatalf("report: %+v", rep)
	}
	if got := rep.MinAnonymity(); got != 0 {
		t.Fatalf("min anonymity = %d, want 0 (the empty set)", got)
	}
	if got, want := rep.MeanAnonymity(), (1.0+4+2+0)/4; got != want {
		t.Fatalf("mean anonymity = %g, want %g", got, want)
	}
	if got, want := rep.LinkProbability(), (1+0.25+0.5+0)/4; got != want {
		t.Fatalf("link probability = %g, want %g", got, want)
	}
	rep = Score(kn, []Series{series(2, 20), series(3, 30)})
	if got := rep.MinAnonymity(); got != 2 {
		t.Fatalf("min anonymity = %d, want 2", got)
	}
}

func TestScoreEmpty(t *testing.T) {
	rep := Score(scriptedStore{}, nil)
	if len(rep.Groups) != 0 || rep.IdentifiedGroups() != 0 || rep.MinAnonymity() != 0 ||
		rep.MeanAnonymity() != 0 || rep.LinkProbability() != 0 {
		t.Fatalf("empty report: %+v", rep)
	}
}

func TestSplit(t *testing.T) {
	log := []Logged{
		{1, reqAt(1, "a", box(0, 0, 1, 1, 0, 1))},
		{2, reqAt(2, "b", box(0, 0, 1, 1, 1, 2))},
		{1, reqAt(3, "a", box(0, 0, 1, 1, 2, 3))},
		{1, reqAt(4, "c", box(0, 0, 1, 1, 3, 4))},
		{1, reqAt(5, "a", box(0, 0, 1, 1, 4, 5))},
	}
	series, byIssuer := Split(log, 2)
	if len(series) != 3 || series[0].Issuer != 1 || series[1].Issuer != 2 || series[2].Issuer != 1 {
		t.Fatalf("series %+v, want a (u1), b (u2), c (u1) in order of first appearance", series)
	}
	if b := series[0].Boxes; len(b) != 2 || b[0].Time.Start != 0 || b[1].Time.Start != 2 {
		t.Fatalf("series a boxes %v, want its first two", b)
	}
	var ids [][]wire.MsgID
	for _, reqs := range byIssuer {
		var row []wire.MsgID
		for _, r := range reqs {
			row = append(row, r.ID)
		}
		ids = append(ids, row)
	}
	if len(ids) != 2 || len(ids[0]) != 4 || ids[0][3] != 5 || len(ids[1]) != 1 || ids[1][0] != 2 {
		t.Fatalf("requests by issuer %v, want [[1 3 4 5] [2]]", ids)
	}
}
