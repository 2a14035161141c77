package ts

import (
	"math/rand"
	"reflect"
	"testing"

	"histanon/internal/anon"
	"histanon/internal/generalize"
	"histanon/internal/geo"
	"histanon/internal/lbqid"
	"histanon/internal/link"
	"histanon/internal/mixzone"
	"histanon/internal/phl"
	"histanon/internal/sp"
	"histanon/internal/stindex"
	"histanon/internal/tgran"
	"histanon/internal/wire"
)

func pt(x, y float64, t int64) geo.STPoint {
	return geo.STPoint{P: geo.Point{X: x, Y: y}, T: t}
}

const commuteLBQID = `
lbqid "commute" {
    element "Home"   area [0,200]x[0,200]       time [06:30,09:00]
    element "Office" area [1800,2200]x[0,200]   time [07:00,11:00]
    element "Office" area [1800,2200]x[0,200]   time [15:30,19:00]
    element "Home"   area [0,200]x[0,200]       time [16:00,21:00]
    recurrence 3.Weekdays * 2.Weeks
}`

// at builds an instant from day index and second-of-day.
func at(day, sod int64) int64 { return day*tgran.Day + sod }

// seedCrowd records idle-and-commuting neighbors so anonymity sets are
// non-trivial: users 1..n-1 mirror the issuer's home/office pattern with
// spatial jitter; the issuer is user 0.
func seedCrowd(s *Server, n int, days int64) {
	for day := int64(0); day < days; day++ {
		if day%7 >= 5 {
			continue
		}
		for u := 1; u < n; u++ {
			dx := float64(u * 7)
			dy := float64(u * 5)
			s.RecordLocation(phl.UserID(u), pt(50+dx, 50+dy, at(day, 7*tgran.Hour+int64(u)*30)))
			s.RecordLocation(phl.UserID(u), pt(2000+dx, 50+dy, at(day, 8*tgran.Hour+int64(u)*30)))
			s.RecordLocation(phl.UserID(u), pt(2000+dx, 50+dy, at(day, 17*tgran.Hour+int64(u)*30)))
			s.RecordLocation(phl.UserID(u), pt(50+dx, 50+dy, at(day, 18*tgran.Hour+int64(u)*30)))
		}
	}
}

// issuerDay sends the four commute requests of one weekday and returns
// the decisions.
func issuerDay(s *Server, day int64) []Decision {
	points := []geo.STPoint{
		pt(50, 50, at(day, 7*tgran.Hour+600)),
		pt(2000, 50, at(day, 8*tgran.Hour+600)),
		pt(2000, 50, at(day, 17*tgran.Hour)),
		pt(50, 50, at(day, 18*tgran.Hour)),
	}
	var out []Decision
	for _, p := range points {
		out = append(out, s.Request(0, p, "navigation", nil))
	}
	return out
}

func newServer(t *testing.T, cfg Config) (*Server, *sp.Provider) {
	t.Helper()
	provider := sp.NewProvider()
	s := New(cfg, provider)
	return s, provider
}

func TestNonMatchingRequestForwardedExact(t *testing.T) {
	s, provider := newServer(t, Config{})
	dec := s.Request(0, pt(100, 100, 1000), "weather", map[string]string{"q": "today"})
	if !dec.Forwarded || dec.Generalized || dec.MatchedLBQID != "" {
		t.Fatalf("decision: %+v", dec)
	}
	reqs := provider.Requests()
	if len(reqs) != 1 {
		t.Fatalf("forwarded %d requests", len(reqs))
	}
	r := reqs[0]
	if r.Context.Area.Area() != 0 || r.Context.Time.Duration() != 0 {
		t.Fatalf("non-QI request must keep exact context: %v", r.Context)
	}
	if r.Service != "weather" || r.Data["q"] != "today" {
		t.Fatalf("payload lost: %+v", r)
	}
	if r.Pseudonym == "" {
		t.Fatal("pseudonym missing")
	}
}

func TestMatchingRequestGeneralized(t *testing.T) {
	s, provider := newServer(t, Config{DefaultPolicy: Policy{K: 3}})
	if err := s.AddLBQIDSpec(0, commuteLBQID); err != nil {
		t.Fatal(err)
	}
	seedCrowd(s, 8, 1)
	dec := s.Request(0, pt(50, 50, at(0, 7*tgran.Hour+600)), "navigation", nil)
	if !dec.Forwarded || !dec.Generalized || dec.MatchedLBQID != "commute" {
		t.Fatalf("decision: %+v", dec)
	}
	if !dec.HKAnonymity {
		t.Fatal("crowded home area must preserve anonymity")
	}
	r := provider.Requests()[0]
	if r.Context.Area.Area() <= 0 {
		t.Fatalf("generalized context must have positive area: %v", r.Context)
	}
	// The box must cover at least K users in the store.
	if got := s.Store().CountUsersIn(r.Context); got < 3 {
		t.Fatalf("context covers %d users, want >=3", got)
	}
}

func TestFullExposureKeepsHistoricalK(t *testing.T) {
	const k = 3
	s, provider := newServer(t, Config{DefaultPolicy: Policy{K: k}})
	if err := s.AddLBQIDSpec(0, commuteLBQID); err != nil {
		t.Fatal(err)
	}
	seedCrowd(s, 10, 14)

	exposed := false
	for day := int64(0); day < 14; day++ {
		if day%7 >= 5 {
			continue
		}
		for _, dec := range issuerDay(s, day) {
			if !dec.HKAnonymity {
				t.Fatalf("day %d: generalization failed: %+v", day, dec)
			}
			exposed = exposed || dec.QIDExposed
		}
	}
	if !exposed {
		t.Fatal("ten commuting weekdays must expose the LBQID")
	}
	// Theorem 1 check: the SP-visible request series satisfies
	// historical k-anonymity against the true PHL database.
	var boxes []geo.STBox
	for _, r := range provider.Requests() {
		boxes = append(boxes, r.Context)
	}
	if !anon.SatisfiesHistoricalK(s.Store(), 0, boxes, k) {
		t.Fatalf("historical %d-anonymity violated (level=%d)",
			k, anon.HistoricalLevel(s.Store(), 0, boxes))
	}
}

func TestToleranceFailureTriggersUnlink(t *testing.T) {
	// Tight tolerance and far-apart neighbors: generalization must fail
	// and the TS must rotate the pseudonym via an on-demand mix zone.
	cfg := Config{
		DefaultPolicy: Policy{K: 3},
		Services: map[string]ServiceSpec{
			"navigation": {Name: "navigation", Tolerance: generalize.Tolerance{
				MaxWidth: 10, MaxHeight: 10, MaxDuration: 10,
			}},
		},
		OnDemand: mixzone.OnDemand{Quiet: 300, Divergence: mixzone.Divergence{MinAngle: 0.3}},
	}
	s, provider := newServer(t, cfg)
	if err := s.AddLBQIDSpec(0, commuteLBQID); err != nil {
		t.Fatal(err)
	}
	// Neighbors whose home samples are ~500 m away: any enclosing box
	// busts the 10 m tolerance. Give them diverging onward paths so the
	// on-demand zone can form.
	base := at(0, 7*tgran.Hour)
	dirs := [][2]float64{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	for u := 1; u <= 4; u++ {
		d := dirs[u-1]
		// Trajectories extend past the request time plus the divergence
		// horizon so onward headings are measurable.
		for step := int64(0); step <= 12; step++ {
			s.RecordLocation(phl.UserID(u),
				pt(500*d[0]+float64(step)*120*d[0], 500*d[1]+float64(step)*120*d[1], base+step*120))
		}
	}
	dec := s.Request(0, pt(50, 50, base+600), "navigation", nil)
	if dec.HKAnonymity {
		t.Fatalf("10m tolerance must break anonymity: %+v", dec)
	}
	if !dec.Unlinked {
		t.Fatalf("expected an unlinking action: %+v", dec)
	}
	if s.Rotations(0) != 1 {
		t.Fatalf("rotations=%d", s.Rotations(0))
	}
	// The forwarded request still respects the tolerance.
	r := provider.Requests()[0]
	if r.Context.Area.Width() > 10 || r.Context.Time.Duration() > 10 {
		t.Fatalf("clamped context exceeded tolerance: %v", r.Context)
	}
	// Requests inside the suppression window+area are withheld.
	dec = s.Request(0, pt(55, 50, base+700), "navigation", nil)
	if !dec.Suppressed {
		t.Fatalf("expected suppression inside the on-demand zone: %+v", dec)
	}
	if got := s.Counters.Get("suppressed"); got != 1 {
		t.Fatalf("suppressed counter=%d", got)
	}
}

func TestUnlinkResetsExposure(t *testing.T) {
	cfg := Config{
		DefaultPolicy: Policy{K: 3},
		Services: map[string]ServiceSpec{
			"navigation": {Tolerance: generalize.Tolerance{MaxWidth: 5, MaxHeight: 5, MaxDuration: 5}},
		},
		StaticZones: mixzone.NewRegistry(mixzone.Zone{
			Name: "plaza", Area: geo.Rect{MinX: 0, MinY: 0, MaxX: 3000, MaxY: 3000},
		}),
	}
	s, _ := newServer(t, cfg)
	if err := s.AddLBQIDSpec(0, commuteLBQID); err != nil {
		t.Fatal(err)
	}
	seedCrowd(s, 6, 1)
	// Prior movement crosses the static zone, so rotation is available.
	s.RecordLocation(0, pt(100, 100, at(0, 6*tgran.Hour)))

	p1 := s.Pseudonyms().Current(0)
	dec := s.Request(0, pt(50, 50, at(0, 7*tgran.Hour+600)), "navigation", nil)
	if dec.HKAnonymity || !dec.Unlinked {
		t.Fatalf("decision: %+v", dec)
	}
	p2 := s.Pseudonyms().Current(0)
	if p1 == p2 {
		t.Fatal("pseudonym must have rotated")
	}
	// After reset, the next matching request starts a fresh exposure
	// (element 0 again), under the new pseudonym.
	dec = s.Request(0, pt(60, 50, at(0, 7*tgran.Hour+900)), "weather", nil)
	if dec.MatchedLBQID != "commute" || !dec.Generalized {
		t.Fatalf("fresh exposure expected: %+v", dec)
	}
	if dec.Request.Pseudonym != p2 {
		t.Fatal("request must carry the new pseudonym")
	}
}

func TestAtRiskWhenUnlinkImpossible(t *testing.T) {
	// No crowd at all: generalization fails outright and no diverging
	// users exist, so the user must be flagged at risk; with a
	// suppressing policy, service stops.
	cfg := Config{DefaultPolicy: Policy{K: 5, SuppressAtRisk: true}}
	s, provider := newServer(t, cfg)
	if err := s.AddLBQIDSpec(0, commuteLBQID); err != nil {
		t.Fatal(err)
	}
	dec := s.Request(0, pt(50, 50, at(0, 7*tgran.Hour+600)), "navigation", nil)
	if !dec.AtRisk || !dec.Suppressed || dec.Forwarded {
		t.Fatalf("decision: %+v", dec)
	}
	if !s.AtRisk(0) {
		t.Fatal("user must be flagged at risk")
	}
	if len(provider.Requests()) != 0 {
		t.Fatal("suppressed request must not reach the SP")
	}
	if s.Counters.Get("at_risk") != 1 {
		t.Fatalf("counters: %s", s.Counters)
	}
}

func TestAtRiskNotifyOnlyStillForwards(t *testing.T) {
	cfg := Config{DefaultPolicy: Policy{K: 5, SuppressAtRisk: false}}
	s, provider := newServer(t, cfg)
	if err := s.AddLBQIDSpec(0, commuteLBQID); err != nil {
		t.Fatal(err)
	}
	dec := s.Request(0, pt(50, 50, at(0, 7*tgran.Hour+600)), "navigation", nil)
	if !dec.AtRisk || !dec.Forwarded {
		t.Fatalf("decision: %+v", dec)
	}
	if len(provider.Requests()) != 1 {
		t.Fatal("notify-only policy must still forward")
	}
}

func TestPolicyForLevel(t *testing.T) {
	low, med, high := PolicyForLevel(Low), PolicyForLevel(Medium), PolicyForLevel(High)
	if !(low.K < med.K && med.K < high.K) {
		t.Fatalf("K must grow with the level: %d %d %d", low.K, med.K, high.K)
	}
	if !(low.Theta > med.Theta && med.Theta > high.Theta) {
		t.Fatal("Theta must shrink with the level")
	}
	if !high.SuppressAtRisk {
		t.Fatal("high level must suppress at risk")
	}
	if Low.String() != "low" || Medium.String() != "medium" || High.String() != "high" {
		t.Fatal("level names wrong")
	}
	if Level(9).String() == "" {
		t.Fatal("unknown level must still render")
	}
}

func TestAddLBQIDValidation(t *testing.T) {
	s, _ := newServer(t, Config{})
	if err := s.AddLBQID(0, &lbqid.LBQID{Name: "empty"}); err == nil {
		t.Fatal("invalid LBQID must be rejected")
	}
	if err := s.AddLBQIDSpec(0, "garbage"); err == nil {
		t.Fatal("unparsable spec must be rejected")
	}
}

func TestRecordLocationFeedsStore(t *testing.T) {
	s, _ := newServer(t, Config{})
	s.RecordLocation(7, pt(1, 2, 3))
	h := s.Store().History(7)
	if h == nil || h.Len() != 1 {
		t.Fatal("location update must land in the PHL store")
	}
}

// TestRecordLocationsFallsBackPerSample: a store and index without the
// batch methods (perfbench's timing decorators, chaos.SlowIndex) get
// one Record and one Insert per sample and end up holding what a
// batch-native server holds. Location updates create no per-user
// state.
func TestRecordLocationsFallsBackPerSample(t *testing.T) {
	type recordOnly struct{ phl.Storer }
	type insertOnly struct{ stindex.Index }
	plain, _ := newServer(t, Config{Store: recordOnly{phl.NewStore()}, Index: insertOnly{stindex.NewGrid(500, 900)}})
	native, _ := newServer(t, Config{})
	if plain.batchStore != nil || plain.batchIndex != nil {
		t.Fatal("wrapped store and index must not resolve the batch interfaces")
	}
	if native.batchStore == nil || native.batchIndex == nil {
		t.Fatal("phl.Store and the grid must resolve the batch interfaces")
	}
	rng := rand.New(rand.NewSource(3))
	run := make([]phl.Sample, 300)
	for i := range run {
		run[i] = phl.Sample{User: phl.UserID(rng.Intn(12)), Point: pt(rng.Float64()*3000, rng.Float64()*3000, int64(i*7))}
	}
	for _, s := range []*Server{plain, native} {
		s.RecordLocations(run[:1])
		s.RecordLocations(run[1:170])
		s.RecordLocations(nil)
		s.RecordLocations(run[170:])
	}
	if p, n := plain.Store().Users(), native.Store().Users(); !reflect.DeepEqual(p, n) {
		t.Fatalf("user order: per-sample %v, batched %v", p, n)
	}
	for _, u := range native.Store().Users() {
		if p, n := plain.Store().History(u).Points(), native.Store().History(u).Points(); !reflect.DeepEqual(p, n) {
			t.Fatalf("history of %v: per-sample %v, batched %v", u, p, n)
		}
	}
	for i := 0; i < 20; i++ {
		q := pt(rng.Float64()*3000, rng.Float64()*3000, int64(rng.Intn(2100)))
		if p, n := plain.index.KNearestUsers(q, 4, geo.STMetric{}, nil), native.index.KNearestUsers(q, 4, geo.STMetric{}, nil); !reflect.DeepEqual(p, n) {
			t.Fatalf("KNN(%v): per-sample %v, batched %v", q, p, n)
		}
	}
	if len(plain.users) != 0 || len(native.users) != 0 {
		t.Fatalf("location updates created user state: %d and %d users", len(plain.users), len(native.users))
	}
}

func TestCountersProgress(t *testing.T) {
	s, _ := newServer(t, Config{DefaultPolicy: Policy{K: 2}})
	if err := s.AddLBQIDSpec(0, commuteLBQID); err != nil {
		t.Fatal(err)
	}
	seedCrowd(s, 5, 1)
	issuerDay(s, 0)
	if s.Counters.Get("requests") != 4 {
		t.Fatalf("requests=%d", s.Counters.Get("requests"))
	}
	if s.Counters.Get("generalized") != 4 {
		t.Fatalf("generalized=%d", s.Counters.Get("generalized"))
	}
	if got := s.Obs.GenAreaM2.Count(); got != 4 {
		t.Fatalf("area samples=%d", got)
	}
}

func TestOutboxFunc(t *testing.T) {
	var got *wire.Request
	f := OutboxFunc(func(r *wire.Request) { got = r })
	s := New(Config{}, f)
	s.Request(0, pt(0, 0, 0), "svc", nil)
	if got == nil || got.Service != "svc" {
		t.Fatalf("OutboxFunc not invoked: %+v", got)
	}
}

func TestMultipleLBQIDsUnionContext(t *testing.T) {
	s, provider := newServer(t, Config{DefaultPolicy: Policy{K: 3}})
	// Two patterns whose first elements both cover the home area.
	if err := s.AddLBQIDSpec(0, commuteLBQID); err != nil {
		t.Fatal(err)
	}
	if err := s.AddLBQIDSpec(0, `
lbqid "morning-errand" {
    element "Home" area [0,300]x[0,300] time [06:00,10:00]
    element "Shop" area [900,1100]x[900,1100] time [08:00,12:00]
    recurrence 2.Days
}`); err != nil {
		t.Fatal(err)
	}
	seedCrowd(s, 8, 1)
	dec := s.Request(0, pt(50, 50, at(0, 7*tgran.Hour+600)), "navigation", nil)
	if dec.MatchedLBQID != "commute,morning-errand" {
		t.Fatalf("MatchedLBQID=%q", dec.MatchedLBQID)
	}
	if !dec.Generalized || !dec.HKAnonymity {
		t.Fatalf("decision: %+v", dec)
	}
	// The forwarded context must certify both sessions: it covers at
	// least K users.
	r := provider.Requests()[0]
	if got := s.Store().CountUsersIn(r.Context); got < 3 {
		t.Fatalf("union context covers %d users", got)
	}
}

func TestMultipleLBQIDsUnionToleranceClamp(t *testing.T) {
	cfg := Config{
		DefaultPolicy: Policy{K: 2},
		Services: map[string]ServiceSpec{
			"navigation": {Tolerance: generalize.Tolerance{MaxWidth: 120, MaxHeight: 120, MaxDuration: 600}},
		},
	}
	s, provider := newServer(t, cfg)
	// Two single-element patterns pulling witnesses from opposite sides:
	// each box fits 120 m, the union does not.
	for _, def := range []string{`
lbqid "a" {
    element area [0,400]x[0,400] time [06:00,10:00]
    recurrence 1.Days
}`, `
lbqid "b" {
    element area [0,400]x[0,400] time [06:00,10:00]
    recurrence 1.Days
}`} {
		if err := s.AddLBQIDSpec(0, def); err != nil {
			t.Fatal(err)
		}
	}
	s.RecordLocation(1, pt(150, 50, at(0, 7*tgran.Hour)))
	s.RecordLocation(2, pt(-40, 50, at(0, 7*tgran.Hour)))
	dec := s.Request(0, pt(50, 50, at(0, 7*tgran.Hour+300)), "navigation", nil)
	if !dec.Forwarded {
		t.Fatalf("decision: %+v", dec)
	}
	r := provider.Requests()[0]
	if r.Context.Area.Width() > 120 || r.Context.Time.Duration() > 600 {
		t.Fatalf("union context exceeds tolerance: %v", r.Context)
	}
	if !r.Context.Area.Contains(geo.Point{X: 50, Y: 50}) {
		t.Fatalf("clamped union lost the request point: %v", r.Context)
	}
}

func TestRandomizeSeedPadsContexts(t *testing.T) {
	mk := func(seed int64) geo.STBox {
		s, provider := newServer(t, Config{DefaultPolicy: Policy{K: 3}, RandomizeSeed: seed})
		if err := s.AddLBQIDSpec(0, commuteLBQID); err != nil {
			t.Fatal(err)
		}
		seedCrowd(s, 8, 1)
		s.Request(0, pt(50, 50, at(0, 7*tgran.Hour+600)), "navigation", nil)
		return provider.Requests()[0].Context
	}
	bare := mk(0)
	padded := mk(99)
	if !padded.ContainsBox(bare) && padded.Area.Area() <= bare.Area.Area() {
		t.Fatalf("randomized context should be padded: bare=%v padded=%v", bare, padded)
	}
	if padded == bare {
		t.Fatal("randomization had no effect")
	}
	// Determinism: same seed, same context.
	if again := mk(99); again != padded {
		t.Fatalf("same seed differs: %v vs %v", again, padded)
	}
}

func TestQuietForTheta(t *testing.T) {
	tr := link.Tracking{HalfLife: 900}
	if got := quietForTheta(1, tr); got != 0 {
		t.Fatalf("theta=1: %d", got)
	}
	// theta=0.5: exactly one half-life.
	if got := quietForTheta(0.5, tr); got != 900 {
		t.Fatalf("theta=0.5: %d", got)
	}
	// theta=0.25: two half-lives.
	if got := quietForTheta(0.25, tr); got != 1800 {
		t.Fatalf("theta=0.25: %d", got)
	}
	// theta=0: capped.
	if got := quietForTheta(0, tr); got != 4*3600 {
		t.Fatalf("theta=0: %d", got)
	}
	// Lower theta means longer quiet.
	if quietForTheta(0.1, tr) <= quietForTheta(0.5, tr) {
		t.Fatal("quiet must grow as theta shrinks")
	}
	// Defaults apply with the zero tracker.
	if got := quietForTheta(0.5, link.Tracking{}); got != int64(link.DefaultHalfLife) {
		t.Fatalf("default half-life: %d", got)
	}
}

func TestThetaExtendsQuietWindow(t *testing.T) {
	run := func(theta float64) int64 {
		cfg := Config{
			DefaultPolicy: Policy{K: 3, Theta: theta},
			Services: map[string]ServiceSpec{
				"navigation": {Tolerance: generalize.Tolerance{MaxWidth: 10, MaxHeight: 10, MaxDuration: 10}},
			},
			OnDemand: mixzone.OnDemand{Quiet: 60, FallbackRadius: 500,
				Divergence: mixzone.Divergence{MinAngle: 3}},
			Tracker: link.Tracking{HalfLife: 600},
		}
		s, _ := newServer(t, cfg)
		if err := s.AddLBQIDSpec(0, commuteLBQID); err != nil {
			t.Fatal(err)
		}
		// A distant crowd: generalization fails, the fallback zone forms.
		for u := 1; u <= 3; u++ {
			s.RecordLocation(phl.UserID(u), pt(float64(400*u), 0, at(0, 7*tgran.Hour)))
		}
		dec := s.Request(0, pt(50, 50, at(0, 7*tgran.Hour+600)), "navigation", nil)
		if !dec.Unlinked {
			t.Fatalf("theta=%g: expected unlink: %+v", theta, dec)
		}
		// Probe when service resumes at the same spot.
		resume := int64(-1)
		for dt := int64(0); dt < 5*3600; dt += 60 {
			d := s.Request(0, pt(51, 50, at(0, 7*tgran.Hour+700)+dt), "weather", nil)
			if !d.Suppressed {
				resume = dt
				break
			}
		}
		return resume
	}
	strict := run(0.2) // needs ~600*log2(5) ≈ 1394 s
	loose := run(0.9)  // needs ~600*log2(1.11) ≈ 92 s
	if strict <= loose {
		t.Fatalf("stricter theta must suppress longer: strict=%d loose=%d", strict, loose)
	}
	if loose < 0 || strict < 0 {
		t.Fatalf("service never resumed: strict=%d loose=%d", strict, loose)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	// Fig. 1's full loop: device -> TS -> SP -> TS -> device, with the
	// SP addressing the answer only by msgid.
	provider := sp.NewProvider()
	s := New(Config{}, provider)
	provider.Respond(map[string]sp.Logic{
		"echo": sp.LogicFunc(func(req *wire.Request) map[string]string {
			return map[string]string{
				"echoed": req.Data["q"],
				"area":   req.Context.Area.String(),
			}
		}),
	}, s.DeliverResponse)

	var got []*wire.Response
	s.SetInbox(1, InboxFunc(func(r *wire.Response) { got = append(got, r) }))

	dec := s.Request(1, pt(10, 10, 100), "echo", map[string]string{"q": "hello"})
	if !dec.Forwarded {
		t.Fatalf("decision: %+v", dec)
	}
	if len(got) != 1 {
		t.Fatalf("device received %d responses", len(got))
	}
	if got[0].ID != dec.Request.ID || got[0].Payload["echoed"] != "hello" {
		t.Fatalf("response: %+v", got[0])
	}
	if s.Counters.Get("responses") != 1 || s.Counters.Get("responses_unroutable") != 0 {
		t.Fatalf("counters: %s", s.Counters)
	}

	// A reused or bogus msgid is unroutable (each msgid routes once).
	s.DeliverResponse(&wire.Response{ID: dec.Request.ID})
	s.DeliverResponse(&wire.Response{ID: 99999})
	if s.Counters.Get("responses_unroutable") != 2 {
		t.Fatalf("unroutable accounting: %s", s.Counters)
	}
	if len(got) != 1 {
		t.Fatal("stale msgid must not reach the device")
	}
}

func TestResponseWithoutInboxIsDropped(t *testing.T) {
	provider := sp.NewProvider()
	s := New(Config{}, provider)
	provider.Respond(map[string]sp.Logic{
		"svc": sp.LogicFunc(func(*wire.Request) map[string]string { return nil }),
	}, s.DeliverResponse)
	dec := s.Request(2, pt(0, 0, 0), "svc", nil)
	if !dec.Forwarded {
		t.Fatal("not forwarded")
	}
	// No inbox registered: the response is counted but goes nowhere.
	if s.Counters.Get("responses") != 1 {
		t.Fatalf("counters: %s", s.Counters)
	}
}

type recordingNotifier struct {
	atRisk   []phl.UserID
	unlinked []phl.UserID
}

func (n *recordingNotifier) AtRisk(u phl.UserID, _ string) { n.atRisk = append(n.atRisk, u) }
func (n *recordingNotifier) Unlinked(u phl.UserID, _, _ wire.Pseudonym) {
	n.unlinked = append(n.unlinked, u)
}

func TestNotifierEvents(t *testing.T) {
	// No crowd: generalization fails and unlinking is impossible -> the
	// at-risk notification fires exactly once.
	s, _ := newServer(t, Config{DefaultPolicy: Policy{K: 5}})
	n := &recordingNotifier{}
	s.SetNotifier(n)
	if err := s.AddLBQIDSpec(0, commuteLBQID); err != nil {
		t.Fatal(err)
	}
	s.Request(0, pt(50, 50, at(0, 7*tgran.Hour+600)), "navigation", nil)
	s.Request(0, pt(55, 50, at(0, 7*tgran.Hour+700)), "navigation", nil)
	if len(n.atRisk) != 1 || n.atRisk[0] != 0 {
		t.Fatalf("atRisk notifications: %v", n.atRisk)
	}

	// With a fallback zone available, the unlinked notification fires.
	cfg := Config{
		DefaultPolicy: Policy{K: 3},
		Services: map[string]ServiceSpec{
			"navigation": {Tolerance: generalize.Tolerance{MaxWidth: 5, MaxHeight: 5, MaxDuration: 5}},
		},
		OnDemand: mixzone.OnDemand{Quiet: 60, FallbackRadius: 300, Divergence: mixzone.Divergence{MinAngle: 3}},
	}
	s2, _ := newServer(t, cfg)
	n2 := &recordingNotifier{}
	s2.SetNotifier(n2)
	if err := s2.AddLBQIDSpec(0, commuteLBQID); err != nil {
		t.Fatal(err)
	}
	for u := 1; u <= 2; u++ {
		s2.RecordLocation(phl.UserID(u), pt(float64(300*u), 0, at(0, 7*tgran.Hour)))
	}
	dec := s2.Request(0, pt(50, 50, at(0, 7*tgran.Hour+600)), "navigation", nil)
	if !dec.Unlinked {
		t.Fatalf("expected unlink: %+v", dec)
	}
	if len(n2.unlinked) != 1 || n2.unlinked[0] != 0 {
		t.Fatalf("unlinked notifications: %v", n2.unlinked)
	}
}

func TestWitnessSamplesConfig(t *testing.T) {
	// WitnessSamples grows the forwarded box to include several samples
	// per witness.
	mk := func(ws int) float64 {
		s, provider := newServer(t, Config{DefaultPolicy: Policy{K: 3}, WitnessSamples: ws})
		if err := s.AddLBQIDSpec(0, commuteLBQID); err != nil {
			t.Fatal(err)
		}
		// Each neighbor has a burst of home samples.
		for u := 1; u <= 3; u++ {
			for i := int64(0); i < 6; i++ {
				s.RecordLocation(phl.UserID(u),
					pt(float64(30*u)+float64(i)*15, float64(i)*10, at(0, 7*tgran.Hour+i*60)))
			}
		}
		s.Request(0, pt(50, 50, at(0, 7*tgran.Hour+600)), "navigation", nil)
		return provider.Requests()[0].Context.Area.Area()
	}
	plain := mk(0)
	balanced := mk(4)
	if balanced <= plain {
		t.Fatalf("balanced box must be larger: %g vs %g", balanced, plain)
	}
}

func TestPerServiceTolerance(t *testing.T) {
	cfg := Config{
		DefaultPolicy: Policy{K: 2},
		Services: map[string]ServiceSpec{
			"strict": {Tolerance: generalize.Tolerance{MaxWidth: 10, MaxHeight: 10, MaxDuration: 10}},
			"loose":  {Tolerance: generalize.Unlimited},
		},
	}
	s, provider := newServer(t, cfg)
	if err := s.AddLBQIDSpec(0, commuteLBQID); err != nil {
		t.Fatal(err)
	}
	s.RecordLocation(1, pt(180, 180, at(0, 7*tgran.Hour)))
	// The same matching position under two services: the strict one is
	// clamped, the loose one is not.
	d1 := s.Request(0, pt(50, 50, at(0, 7*tgran.Hour+300)), "strict", nil)
	d2 := s.Request(0, pt(50, 50, at(0, 7*tgran.Hour+400)), "loose", nil)
	if d1.HKAnonymity {
		t.Fatalf("strict service must fail anonymity: %+v", d1)
	}
	if !d2.HKAnonymity {
		t.Fatalf("loose service must preserve anonymity: %+v", d2)
	}
	reqs := provider.Requests()
	if reqs[0].Context.Area.Width() > 10 {
		t.Fatalf("strict context too wide: %v", reqs[0].Context)
	}
	if reqs[1].Context.Area.Width() <= 10 {
		t.Fatalf("loose context unexpectedly clamped: %v", reqs[1].Context)
	}
}
