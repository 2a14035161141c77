package lbqid

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"histanon/internal/geo"
	"histanon/internal/tgran"
)

// Paper Example 2: home->office in the morning, office->home in the
// evening, observed 3 weekdays a week for 2 weeks.
const example2 = `
# Example 2 of the paper.
lbqid "HomeOfficeCommute" {
    element "AreaCondominium" area [0,100]x[0,100]    time [7am,8am]
    element "AreaOfficeBldg"  area [500,600]x[0,100]  time [8am,9am]
    element "AreaOfficeBldg"  area [500,600]x[0,100]  time [4pm,6pm]
    element "AreaCondominium" area [0,100]x[0,100]    time [5pm,7pm]
    recurrence 3.Weekdays * 2.Weeks
}
`

func mustExample2(t *testing.T) *LBQID {
	t.Helper()
	q, err := ParseOne(example2)
	if err != nil {
		t.Fatalf("ParseOne: %v", err)
	}
	return q
}

func pt(x, y float64, t int64) geo.STPoint {
	return geo.STPoint{P: geo.Point{X: x, Y: y}, T: t}
}

// at builds an engine instant from week, day-of-week (0=Mon) and
// seconds-of-day.
func at(week, dow, sod int64) int64 {
	return week*tgran.Week + dow*tgran.Day + sod
}

const (
	h7  = 7 * tgran.Hour
	h8  = 8 * tgran.Hour
	h9  = 9 * tgran.Hour
	h16 = 16 * tgran.Hour
	h17 = 17 * tgran.Hour
	h18 = 18 * tgran.Hour
)

// commutePoints returns the four request points of one full commute
// observation on the given week/day.
func commutePoints(week, dow int64) []geo.STPoint {
	return []geo.STPoint{
		pt(50, 50, at(week, dow, h7+30*tgran.Minute)),   // condo, 7:30am
		pt(550, 50, at(week, dow, h8+30*tgran.Minute)),  // office, 8:30am
		pt(550, 50, at(week, dow, h16+30*tgran.Minute)), // office, 4:30pm
		pt(50, 50, at(week, dow, h18)),                  // condo, 6pm
	}
}

func TestParseExample2(t *testing.T) {
	q := mustExample2(t)
	if q.Name != "HomeOfficeCommute" || len(q.Elements) != 4 {
		t.Fatalf("parsed %q with %d elements", q.Name, len(q.Elements))
	}
	if q.Elements[0].Name != "AreaCondominium" {
		t.Fatalf("element 0 name = %q", q.Elements[0].Name)
	}
	if q.Elements[1].Area != (geo.Rect{MinX: 500, MinY: 0, MaxX: 600, MaxY: 100}) {
		t.Fatalf("element 1 area = %v", q.Elements[1].Area)
	}
	if q.Elements[2].Window.Start != h16 || q.Elements[2].Window.End != h18 {
		t.Fatalf("element 2 window = %v", q.Elements[2].Window)
	}
	if got := q.Recurrence.String(); got != "3.Weekdays * 2.Weeks" {
		t.Fatalf("recurrence = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`element "x" area [0,1]x[0,1] time [7am,8am]`,          // outside block
		"lbqid \"a\" {\n}",                                     // no elements
		"lbqid \"a\" {\n element area [0,1] time [7am,8am]\n}", // malformed area
		"lbqid \"a\" {\n element area [0,1]x[0,1] time [7am]\n}",
		"lbqid \"a\" {\n element area [0,1]x[0,1] time [7am,8am]\n recurrence 0.Days\n}",
		"lbqid \"a\" {\n bogus\n}",
		"lbqid \"a\" {\n lbqid \"b\" {\n}",
		"lbqid noquotes {\n}",
		"lbqid \"a\" {",
		"}",
	}
	for _, s := range bad {
		if _, err := ParseString(s); err == nil {
			t.Errorf("expected error for %q", s)
		}
	}
}

func TestParseMultipleBlocks(t *testing.T) {
	qs, err := ParseString(example2 + "\n" + strings.ReplaceAll(example2, "HomeOfficeCommute", "Second"))
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 || qs[1].Name != "Second" {
		t.Fatalf("got %d blocks", len(qs))
	}
}

// TestParseRetainsNoLines: the names a parsed LBQID keeps are copies,
// not substrings of the lines the scanner read, so the heap the result
// holds does not grow with the length of its definition's lines.
func TestParseRetainsNoLines(t *testing.T) {
	pad := strings.Repeat(" ", 4096)
	spec := strings.NewReplacer("{", pad+"{", "time", pad+"time").Replace(example2)
	const n = 100
	kept := make([]*LBQID, 0, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		q, err := ParseOne(spec)
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, q)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n; got > int64(len(pad)) {
		t.Fatalf("each parsed LBQID holds %d B of heap, more than one %d B line", got, len(pad))
	}
	if kept[n-1].Name != "HomeOfficeCommute" || kept[n-1].Elements[1].Name != "AreaOfficeBldg" {
		t.Fatalf("names changed: %q, %q", kept[n-1].Name, kept[n-1].Elements[1].Name)
	}
}

func TestParseRect(t *testing.T) {
	r, err := ParseRect("[0,100]x[-50,50]")
	if err != nil || r != (geo.Rect{MinX: 0, MinY: -50, MaxX: 100, MaxY: 50}) {
		t.Fatalf("ParseRect: %v %v", r, err)
	}
	// Reversed coordinates are normalized.
	r, err = ParseRect("[100,0]x[50,-50]")
	if err != nil || r != (geo.Rect{MinX: 0, MinY: -50, MaxX: 100, MaxY: 50}) {
		t.Fatalf("ParseRect reversed: %v %v", r, err)
	}
	for _, bad := range []string{"", "[0,1]", "[a,b]x[0,1]", "[0]x[1,2]"} {
		if _, err := ParseRect(bad); err == nil {
			t.Errorf("expected error for %q", bad)
		}
	}
}

func TestElementMatchesPoint(t *testing.T) {
	q := mustExample2(t)
	condoMorning := q.Elements[0]
	if !condoMorning.MatchesPoint(pt(50, 50, at(0, 0, h7+1))) {
		t.Fatal("point inside condo at 7:00:01 must match")
	}
	if condoMorning.MatchesPoint(pt(50, 50, at(0, 0, h9))) {
		t.Fatal("9am is outside [7am,8am]")
	}
	if condoMorning.MatchesPoint(pt(500, 50, at(0, 0, h7+1))) {
		t.Fatal("office position must not match condo area")
	}
}

func TestElementIndexMatching(t *testing.T) {
	q := mustExample2(t)
	// 5:30pm at the condo matches only element 3.
	got := q.ElementIndexMatching(pt(50, 50, at(0, 0, h17+30*tgran.Minute)))
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("ElementIndexMatching = %v", got)
	}
}

func TestMatcherFullMatch(t *testing.T) {
	q := mustExample2(t)
	m := NewMatcher(q)
	var id RequestID
	offer := func(p geo.STPoint) Outcome {
		id++
		return m.Offer(id, p)
	}

	days := [][2]int64{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 3}}
	var last Outcome
	for i, d := range days {
		for j, p := range commutePoints(d[0], d[1]) {
			last = offer(p)
			if !last.Matched {
				t.Fatalf("day %d point %d not matched", i, j)
			}
			if j < 3 && last.CompletedObservation {
				t.Fatalf("day %d point %d completed too early", i, j)
			}
		}
		if !last.CompletedObservation {
			t.Fatalf("day %d final point did not complete the observation", i)
		}
		// Satisfied exactly at the end of the 3rd day of week 1.
		wantSat := i >= 5
		if last.Satisfied != wantSat {
			t.Fatalf("day %d: Satisfied=%v want %v", i, last.Satisfied, wantSat)
		}
	}
	if m.Observations() != 6 {
		t.Fatalf("Observations=%d", m.Observations())
	}
	if got := len(m.ExposedRequests()); got != 24 {
		t.Fatalf("ExposedRequests=%d want 24", got)
	}
}

func TestMatcherIncompleteDayDoesNotCount(t *testing.T) {
	q := mustExample2(t)
	m := NewMatcher(q)
	var id RequestID
	// Week 0: three days but the third day misses the evening return.
	for _, d := range [][2]int64{{0, 0}, {0, 1}} {
		for _, p := range commutePoints(d[0], d[1]) {
			id++
			m.Offer(id, p)
		}
	}
	for _, p := range commutePoints(0, 2)[:3] {
		id++
		m.Offer(id, p)
	}
	// Week 1: three full days.
	for _, d := range [][2]int64{{1, 0}, {1, 1}, {1, 2}} {
		for _, p := range commutePoints(d[0], d[1]) {
			id++
			m.Offer(id, p)
		}
	}
	if m.Satisfied() {
		t.Fatal("one incomplete week must not satisfy 3.Weekdays * 2.Weeks")
	}
	if m.Observations() != 5 {
		t.Fatalf("Observations=%d want 5", m.Observations())
	}
}

func TestMatcherPartialExpires(t *testing.T) {
	q := mustExample2(t)
	m := NewMatcher(q)
	// Morning trip on Monday, then nothing until Tuesday: the Monday
	// partial can never complete (observation must stay within one
	// weekday granule).
	m.Offer(1, commutePoints(0, 0)[0])
	m.Offer(2, commutePoints(0, 0)[1])
	if got := len(m.ExposedRequests()); got != 2 {
		t.Fatalf("exposed=%d want 2", got)
	}
	out := m.Offer(3, commutePoints(0, 1)[2]) // Tuesday 4:30pm: matches element 2 of nothing
	if out.Matched {
		t.Fatal("Tuesday afternoon point must not extend Monday's partial")
	}
	if got := len(m.ExposedRequests()); got != 0 {
		t.Fatalf("stale partial not expired: exposed=%d", got)
	}
}

func TestMatcherWeekendRequestIgnored(t *testing.T) {
	q := mustExample2(t)
	m := NewMatcher(q)
	// Saturday commute: position and time-of-day match, but Weekdays has
	// no granule on Saturday, so no observation may start.
	for _, p := range commutePoints(0, 5) {
		if out := m.Offer(1, p); out.Matched {
			t.Fatalf("weekend point %v must not match", p)
		}
	}
}

func TestMatcherReset(t *testing.T) {
	q := mustExample2(t)
	m := NewMatcher(q)
	var id RequestID
	for _, d := range [][2]int64{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}} {
		for _, p := range commutePoints(d[0], d[1]) {
			id++
			m.Offer(id, p)
		}
	}
	if !m.Satisfied() {
		t.Fatal("precondition: satisfied")
	}
	m.Reset()
	if m.Satisfied() || m.Observations() != 0 || len(m.ExposedRequests()) != 0 {
		t.Fatal("Reset must clear all state")
	}
}

func TestMatcherSingleElementPattern(t *testing.T) {
	q, err := ParseOne(`
lbqid "NightClub" {
    element "Club" area [0,10]x[0,10] time [10pm,11pm]
    recurrence 2.Days
}`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(q)
	out := m.Offer(1, pt(5, 5, at(0, 0, 22*tgran.Hour+600)))
	if !out.Matched || !out.CompletedObservation || out.Satisfied {
		t.Fatalf("first visit outcome: %+v", out)
	}
	// Second visit the same night: same day granule, still one day.
	out = m.Offer(2, pt(5, 5, at(0, 0, 22*tgran.Hour+1200)))
	if out.Satisfied {
		t.Fatal("two visits the same day are one day granule")
	}
	out = m.Offer(3, pt(5, 5, at(0, 1, 22*tgran.Hour+600)))
	if !out.Satisfied {
		t.Fatal("visits on two distinct days must satisfy 2.Days")
	}
}

func TestMatcherEmptyRecurrence(t *testing.T) {
	q, err := ParseOne(`
lbqid "OneShot" {
    element area [0,10]x[0,10] time [9am,10am]
    element area [20,30]x[0,10] time [9am,11am]
}`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(q)
	out := m.Offer(1, pt(5, 5, at(0, 0, 9*tgran.Hour+60)))
	if !out.Matched || out.Satisfied {
		t.Fatalf("outcome: %+v", out)
	}
	// With no recurrence the partial survives across days.
	out = m.Offer(2, pt(25, 5, at(0, 3, 10*tgran.Hour)))
	if !out.Matched || !out.Satisfied {
		t.Fatalf("empty recurrence cross-day match failed: %+v", out)
	}
}

func TestMatcherRestartWithinDay(t *testing.T) {
	// Pattern A->B. Stream: A(9:00) A(9:10) B(9:20).
	// The second A both extends nothing and starts a fresh partial; B
	// completes one observation.
	q, err := ParseOne(`
lbqid "AB" {
    element "A" area [0,10]x[0,10] time [9am,10am]
    element "B" area [20,30]x[0,10] time [9am,10am]
    recurrence 1.Days
}`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(q)
	m.Offer(1, pt(5, 5, at(0, 0, 9*tgran.Hour)))
	m.Offer(2, pt(5, 5, at(0, 0, 9*tgran.Hour+600)))
	out := m.Offer(3, pt(25, 5, at(0, 0, 9*tgran.Hour+1200)))
	if !out.CompletedObservation || !out.Satisfied {
		t.Fatalf("outcome: %+v", out)
	}
}

func TestMatcherOverlappingElements(t *testing.T) {
	// A request matching both "continue" and "restart" must keep both
	// possibilities alive: A at 9:00, A at 9:10 (pattern A->A->B).
	q, err := ParseOne(`
lbqid "AAB" {
    element "A1" area [0,10]x[0,10] time [9am,10am]
    element "A2" area [0,10]x[0,10] time [9am,10am]
    element "B"  area [20,30]x[0,10] time [9am,10am]
    recurrence 1.Days
}`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(q)
	m.Offer(1, pt(5, 5, at(0, 0, 9*tgran.Hour)))
	out := m.Offer(2, pt(5, 5, at(0, 0, 9*tgran.Hour+600)))
	if !out.Matched || out.ElementIndex != 1 {
		t.Fatalf("second A should advance to element 1: %+v", out)
	}
	out = m.Offer(3, pt(25, 5, at(0, 0, 9*tgran.Hour+1200)))
	if !out.CompletedObservation || !out.Satisfied {
		t.Fatalf("B should complete: %+v", out)
	}
}

func TestMatchSetOracle(t *testing.T) {
	q := mustExample2(t)
	good := [][]geo.STPoint{
		commutePoints(0, 0), commutePoints(0, 1), commutePoints(0, 2),
		commutePoints(1, 0), commutePoints(1, 1), commutePoints(1, 2),
	}
	if !q.MatchSet(good) {
		t.Fatal("six full commutes over two weeks must match")
	}
	if q.MatchSet(good[:5]) {
		t.Fatal("only two days in week 1 must not match")
	}
	// Wrong order inside an observation.
	bad := commutePoints(0, 3)
	bad[0], bad[3] = bad[3], bad[0]
	if q.MatchSet(append(good[:5], bad)) {
		t.Fatal("time-reversed observation must not match")
	}
	// Wrong length observation.
	if q.MatchSet([][]geo.STPoint{commutePoints(0, 0)[:2]}) {
		t.Fatal("truncated observation must not match")
	}
}

// TestMatcherAgainstOracle replays randomized day schedules through the
// matcher and cross-checks the final verdict against the declarative
// MatchSet oracle built from the days that had complete commutes.
func TestMatcherAgainstOracle(t *testing.T) {
	q := mustExample2(t)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		m := NewMatcher(q)
		var complete [][]geo.STPoint
		var id RequestID
		var lastSat bool
		for week := int64(0); week < 3; week++ {
			for dow := int64(0); dow < 5; dow++ {
				switch rng.Intn(3) {
				case 0: // no activity
				case 1: // partial commute (morning only)
					for _, p := range commutePoints(week, dow)[:2] {
						id++
						lastSat = m.Offer(id, p).Satisfied
					}
				case 2: // full commute
					pts := commutePoints(week, dow)
					for _, p := range pts {
						id++
						lastSat = m.Offer(id, p).Satisfied
					}
					complete = append(complete, pts)
				}
			}
		}
		want := len(complete) > 0 && q.MatchSet(complete)
		if lastSat != m.Satisfied() {
			t.Fatalf("trial %d: outcome/state disagree", trial)
		}
		if m.Satisfied() != want {
			t.Fatalf("trial %d: matcher=%v oracle=%v (%d complete days)",
				trial, m.Satisfied(), want, len(complete))
		}
	}
}

func TestValidateDirect(t *testing.T) {
	q := &LBQID{Name: "x"}
	if q.Validate() == nil {
		t.Fatal("no elements must fail")
	}
	q.Elements = []Element{{Area: geo.Rect{MinX: 1, MaxX: 0}, Window: tgran.NewUInterval(0, 1)}}
	if q.Validate() == nil {
		t.Fatal("invalid area must fail")
	}
}

func TestLBQIDString(t *testing.T) {
	q := mustExample2(t)
	s := q.String()
	for _, want := range []string{"HomeOfficeCommute", "AreaCondominium", "3.Weekdays * 2.Weeks"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() misses %q: %s", want, s)
		}
	}
}

func TestWrappingWindowElement(t *testing.T) {
	// A night-shift pattern whose window wraps midnight.
	q, err := ParseOne(`
lbqid "nightshift" {
    element "Plant" area [0,100]x[0,100] time [23:00,01:00]
    recurrence 2.Days
}`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(q)
	// 23:30 on day 0 and 00:30 on day 2 (belonging to day-1's night).
	out := m.Offer(1, pt(50, 50, at(0, 0, 23*tgran.Hour+1800)))
	if !out.Matched || !out.CompletedObservation {
		t.Fatalf("23:30 must match: %+v", out)
	}
	out = m.Offer(2, pt(50, 50, at(0, 2, 30*tgran.Minute)))
	if !out.Matched {
		t.Fatalf("00:30 must match the wrapped window: %+v", out)
	}
	if !m.Satisfied() {
		t.Fatal("two distinct days must satisfy 2.Days")
	}
	// Noon never matches.
	if out := m.Offer(3, pt(50, 50, at(0, 3, 12*tgran.Hour))); out.Matched {
		t.Fatal("noon must not match a [23:00,01:00] window")
	}
}

func TestMatcherManyPartialsBounded(t *testing.T) {
	// A pattern whose element 0 matches every offer: the partial frontier
	// must stay bounded (maxPartials), not grow with the stream.
	q, err := ParseOne(`
lbqid "greedy" {
    element area [0,1000]x[0,1000] time [00:00,23:59]
    element area [2000,3000]x[0,1000] time [00:00,23:59]
    recurrence 1.Days
}`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(q)
	for i := 0; i < 10*maxPartials; i++ {
		m.Offer(RequestID(i), pt(500, 500, at(0, 0, int64(i))))
	}
	if got := len(m.partials); got > maxPartials {
		t.Fatalf("partials grew unbounded: %d", got)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	q := mustExample2(t)
	q2, err := ParseOne(q.Spec())
	if err != nil {
		t.Fatalf("Spec did not round-trip: %v\n%s", err, q.Spec())
	}
	if q2.Name != q.Name || len(q2.Elements) != len(q.Elements) {
		t.Fatalf("round trip changed the pattern: %s", q2)
	}
	for i := range q.Elements {
		if q.Elements[i].Area != q2.Elements[i].Area {
			t.Fatalf("element %d area changed", i)
		}
		if q.Elements[i].Window.Start != q2.Elements[i].Window.Start ||
			q.Elements[i].Window.End != q2.Elements[i].Window.End {
			t.Fatalf("element %d window changed", i)
		}
	}
	if q2.Recurrence.String() != q.Recurrence.String() {
		t.Fatal("recurrence changed")
	}
	// Empty recurrence also round-trips.
	one, err := ParseOne("lbqid \"x\" {\n element area [0,1]x[0,1] time [09:00,10:00]\n}")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseOne(one.Spec()); err != nil {
		t.Fatalf("empty-recurrence spec: %v\n%s", err, one.Spec())
	}
}
