// E-comp: the comparative privacy-approach benchmark (the evaluation
// Biswas–Sairam call for, PAPERS.md). One seeded workload per scenario
// shape (mobility.Scenarios: rush-hour, stadium, federation, rural) is
// run through four approaches over identical requests:
//
//   - generalize: the paper's Algorithm 1 via per-trace Sessions —
//     historical k-anonymity with tolerance constraints;
//   - mixzone: exact coordinates outside zones, silence inside, a
//     pseudonym rotation on every zone traversal (internal/mixzone
//     geometry, idealized rotation policy);
//   - cliquecloak: the Gedik–Liu engine — defer until k users'
//     requests share a vicinity, drop at the deadline;
//   - suppress-only: forward the exact location iff its vicinity
//     already holds k users, otherwise suppress.
//
// Privacy is measured against the recording-SP threat model of §5: the
// attacker holds the full PHL and intersects LT-consistent candidates
// across each pseudonym's forwarded boxes (sp.Score); cross-rotation
// linkability is link.RotationLikelihoods under the Tracking attacker.
// QoS is suppression, cloak area and deferral latency.

package sim

import (
	"fmt"
	"sort"

	"histanon/internal/baseline"
	"histanon/internal/generalize"
	"histanon/internal/geo"
	"histanon/internal/link"
	"histanon/internal/mixzone"
	"histanon/internal/mobility"
	"histanon/internal/phl"
	"histanon/internal/sp"
	"histanon/internal/stindex"
	"histanon/internal/tgran"
	"histanon/internal/wire"
)

// The frontier's sizes. The comparison workloads are materialized (the
// attacks need the full PHL); compCaps bounds the O(users × boxes)
// LT-consistency attack and the achieved-k sample, and the table notes
// state every value.
const (
	compSeed   = 1
	compK      = 5
	compAgents = 800
	compDays   = 2
)

var compCaps = attackCaps{users: 250, boxes: 8, measure: 1200}

// compRow is one (scenario, approach) cell of the privacy-vs-QoS
// frontier.
type compRow struct {
	Scenario string
	Approach string
	Requests int
	// QoS side.
	ForwardedPct  float64
	SuppressedPct float64
	MeanAreaKm2   float64
	MeanDeferS    float64
	// Privacy side.
	KP5         float64
	KP50        float64
	BelowKPct   float64
	ReidPct     float64
	MeanAnonSet float64
	// LinkP95 is the cross-rotation tracking linkability (internal/link)
	// at the 95th percentile; -1 for approaches without rotations.
	LinkP95 float64
}

// compFrontier runs every approach on one seeded workload per scenario
// shape and returns the frontier's cells in report order.
func compFrontier(agents, days int, seed int64, k int, caps attackCaps) []compRow {
	var rows []compRow
	for _, sc := range mobility.Scenarios() {
		w := buildCompWorkload(sc, agents, days, seed)
		for _, ap := range compApproaches() {
			rows = append(rows, evalApproach(w, ap.name, ap.run(w, k), k, caps))
		}
	}
	return rows
}

// compWorkload is one materialized comparison workload: the identical
// request stream every approach sees, plus the ground-truth PHL the
// attacker holds.
type compWorkload struct {
	scenario string
	stream   *mobility.Stream
	events   []mobility.Event
	reqs     []mobility.Event
	store    *phl.Store
	index    stindex.Index
}

func buildCompWorkload(sc mobility.Scenario, agents, days int, seed int64) *compWorkload {
	cfg := sc.Config(agents, seed)
	cfg.Days = days
	s := mobility.NewStream(cfg)
	w := &compWorkload{
		scenario: sc.Name,
		stream:   s,
		store:    phl.NewStore(),
		index:    stindex.NewGrid(500, 1800),
	}
	for id := 0; id < agents; id++ {
		s.AgentEvents(id, func(ev mobility.Event) { w.events = append(w.events, ev) })
	}
	sort.SliceStable(w.events, func(i, j int) bool { return w.events[i].Point.T < w.events[j].Point.T })
	for _, ev := range w.events {
		w.store.Record(ev.User, ev.Point)
		w.index.Insert(ev.User, ev.Point)
		if ev.Request {
			w.reqs = append(w.reqs, ev)
		}
	}
	return w
}

// compOutcome is one request's fate under an approach, aligned with
// compWorkload.reqs.
type compOutcome struct {
	fwd    bool
	box    geo.STBox
	deferS float64
	// seg is the pseudonym segment (increments on mix-zone rotation).
	seg int
}

type compApproach struct {
	name string
	run  func(w *compWorkload, k int) []compOutcome
}

// compApproaches returns the four contenders in report order; the names
// are the frontier's approach column.
func compApproaches() []compApproach {
	return []compApproach{
		{"generalize", runGeneralizeApproach},
		{"mixzone", func(w *compWorkload, _ int) []compOutcome { return runMixzoneApproach(w) }},
		{"cliquecloak", runCliqueCloakApproach},
		{"suppress-only", runSuppressOnlyApproach},
	}
}

// compTolerance is the service-quality bound all generalization shares:
// a 2×2 km, 30-minute cloak is the coarsest useful resolution.
var compTolerance = generalize.Tolerance{MaxWidth: 2000, MaxHeight: 2000, MaxDuration: 1800}

// runGeneralizeApproach runs Algorithm 1 with one Session per (user,
// day) trace. A request is suppressed when generalization fails or the
// tolerance forced the box below the anonymity-preserving size
// (fail-closed, like the TS pipeline).
func runGeneralizeApproach(w *compWorkload, k int) []compOutcome {
	g := &generalize.Generalizer{Index: w.index, Store: w.store, Metric: geo.STMetric{TimeScale: 1}}
	out := make([]compOutcome, len(w.reqs))
	sessions := map[phl.UserID]*generalize.Session{}
	sessionDay := map[phl.UserID]int64{}
	for i, r := range w.reqs {
		day := r.Point.T / tgran.Day
		sess := sessions[r.User]
		if sess == nil || sessionDay[r.User] != day {
			sess = generalize.NewSession(g, r.User, generalize.DecaySchedule{Target: k})
			sessions[r.User] = sess
			sessionDay[r.User] = day
		}
		res, ok := sess.Generalize(r.Point, compTolerance)
		if ok && res.HKAnonymity {
			out[i] = compOutcome{fwd: true, box: res.Box}
		}
	}
	return out
}

// runMixzoneApproach forwards exact coordinates outside mix zones, is
// silent inside them, and rotates the pseudonym on every zone
// traversal — an idealized version of the §5.2/§6.3 unlinking defense
// with static zones on high-traffic places.
func runMixzoneApproach(w *compWorkload) []compOutcome {
	reg := mixzone.NewRegistry(compZones(w)...)
	out := make([]compOutcome, len(w.reqs))
	seg := map[phl.UserID]int{}
	inZone := map[phl.UserID]bool{}
	for i, r := range w.reqs {
		if _, inside := reg.ZoneAt(r.Point.P); inside {
			inZone[r.User] = true // silent period inside the zone
			continue
		}
		if inZone[r.User] {
			seg[r.User]++ // exited a zone: new pseudonym
			inZone[r.User] = false
		}
		out[i] = compOutcome{fwd: true, box: exactBox(r.Point), seg: seg[r.User]}
	}
	return out
}

// compZones places static mix zones on the busiest layout features: the
// stadium venue when present, plus a spread of POIs.
func compZones(w *compWorkload) []mixzone.Zone {
	var zs []mixzone.Zone
	if v, ok := w.stream.Venue(); ok {
		zs = append(zs, mixzone.Zone{Name: v.Name, Area: v.Area.Expand(150)})
	}
	pois := w.stream.POIs()
	stride := len(pois) / 4
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < len(pois) && len(zs) < 5; i += stride {
		zs = append(zs, mixzone.Zone{Name: pois[i].Name, Area: pois[i].Area.Expand(150)})
	}
	return zs
}

// runCliqueCloakApproach drives the Gedik–Liu engine over the
// time-ordered request stream: cloaked cliques forward with their joint
// box and a deferral, deadline misses are drops (suppression).
func runCliqueCloakApproach(w *compWorkload, k int) []compOutcome {
	eng := baseline.NewGedikLiuEngine(k, 1500, 900)
	out := make([]compOutcome, len(w.reqs))
	// Outcomes echo the Request value; map it back to stream indexes
	// FIFO (duplicate (user, point) keys are theoretically possible but
	// jittered float coordinates make them vanishingly rare).
	pending := map[baseline.Request][]int{}
	resolve := func(outcomes []baseline.Outcome) {
		for _, o := range outcomes {
			q := pending[o.Request]
			if len(q) == 0 {
				continue
			}
			i := q[0]
			pending[o.Request] = q[1:]
			if o.Cloaked {
				out[i] = compOutcome{fwd: true, box: o.Box, deferS: float64(o.Deferral)}
			}
		}
	}
	for i, r := range w.reqs {
		br := baseline.Request{User: r.User, Point: r.Point}
		pending[br] = append(pending[br], i)
		resolve(eng.Submit(br))
	}
	resolve(eng.Flush())
	return out
}

// runSuppressOnlyApproach forwards the exact location iff its
// spatio-temporal vicinity (±250 m, ±15 min) already holds k users in
// the PHL — the crudest k-anonymity: no cloaking, only refusal.
func runSuppressOnlyApproach(w *compWorkload, k int) []compOutcome {
	out := make([]compOutcome, len(w.reqs))
	for i, r := range w.reqs {
		vicinity := geo.STBox{
			Area: geo.RectAround(r.Point.P).Expand(250),
			Time: geo.Interval{Start: r.Point.T - 900, End: r.Point.T + 900},
		}
		if w.store.CountUsersIn(vicinity) >= k {
			out[i] = compOutcome{fwd: true, box: exactBox(r.Point)}
		}
	}
	return out
}

// exactBox pads an exact report to the resolution an SP actually
// receives (≈10 m GPS, ±30 s timestamping).
func exactBox(p geo.STPoint) geo.STBox {
	return geo.STBox{
		Area: geo.RectAround(p.P).Expand(10),
		Time: geo.Interval{Start: p.T - 30, End: p.T + 30},
	}
}

type attackCaps struct {
	users, boxes, measure int
}

// evalApproach computes one frontier cell: QoS over the forwarded set,
// achieved-k over a deterministic stride sample, re-identification by
// LT-consistency intersection per pseudonym series, and cross-rotation
// linkability where the approach rotates.
func evalApproach(w *compWorkload, approach string, outs []compOutcome, k int, caps attackCaps) compRow {
	row := compRow{Scenario: w.scenario, Approach: approach, Requests: len(w.reqs), LinkP95: -1}
	if len(w.reqs) == 0 {
		return row
	}
	var fwdIdx []int
	var areaSum, deferSum float64
	for i, o := range outs {
		if !o.fwd {
			continue
		}
		fwdIdx = append(fwdIdx, i)
		areaSum += o.box.Area.Area() / 1e6
		deferSum += o.deferS
	}
	fwd := len(fwdIdx)
	row.ForwardedPct = 100 * float64(fwd) / float64(len(w.reqs))
	row.SuppressedPct = 100 - row.ForwardedPct
	if fwd > 0 {
		row.MeanAreaKm2 = areaSum / float64(fwd)
		row.MeanDeferS = deferSum / float64(fwd)
	}

	// Achieved-k distribution: how many users the PHL actually places in
	// each forwarded box (paper Def. 3 applied per request).
	stride := 1
	if caps.measure > 0 && fwd > caps.measure {
		stride = (fwd + caps.measure - 1) / caps.measure
	}
	var ks []int
	for j := 0; j < fwd; j += stride {
		ks = append(ks, w.store.CountUsersIn(outs[fwdIdx[j]].box))
	}
	sort.Ints(ks)
	if len(ks) > 0 {
		row.KP5 = float64(ks[len(ks)*5/100])
		row.KP50 = float64(ks[len(ks)/2])
		below := 0
		for _, kk := range ks {
			if kk < k {
				below++
			}
		}
		row.BelowKPct = 100 * float64(below) / float64(len(ks))
	}

	// Privacy against the §5 recording SP: sp.Score on the first
	// caps.users pseudonym series, ≤caps.boxes boxes each, and the
	// Tracking attacker's likelihood across each user's rotations, over
	// the last and first ≤3 forwarded requests of the two segments.
	log := make([]sp.Logged, len(fwdIdx))
	for j, i := range fwdIdx {
		u := w.reqs[i].User
		log[j] = sp.Logged{Issuer: u, Req: &wire.Request{
			Pseudonym: wire.Pseudonym(fmt.Sprintf("%v.%d", u, outs[i].seg)), Context: outs[i].box}}
	}
	series, byUser := sp.Split(log, caps.boxes)
	if rep := sp.Score(w.store, series[:min(len(series), caps.users)]); len(rep.Groups) > 0 {
		row.ReidPct = 100 * float64(rep.IdentifiedGroups()) / float64(len(rep.Groups))
		row.MeanAnonSet = rep.MeanAnonymity()
	}
	const maxBoundaries = 400 // stated in the table notes
	if vals := link.RotationLikelihoods(byUser, 3, maxBoundaries, link.Tracking{}); len(vals) > 0 {
		sort.Float64s(vals)
		row.LinkP95 = vals[len(vals)*95/100]
	}
	return row
}

// ECompFrontier is the E-comp-frontier experiment: the privacy-vs-QoS
// frontier at the sizes above.
func ECompFrontier() *Table {
	t := &Table{
		ID:    "E-comp-frontier",
		Title: "privacy vs QoS across four approaches",
		Columns: []string{"scenario", "approach", "requests", "fwd %", "area km²",
			"defer s", "k p5", "k p50", "<k %", "re-id %", "anon set", "link p95"},
		Notes: fmt.Sprintf("identical seeded workloads (%d agents, %d days) per scenario; "+
			"k=%d for every approach. \"fwd %%\" is forwarded requests (the rest are "+
			"suppressed or dropped); \"area\"/\"defer\" are QoS costs over forwarded "+
			"requests. achieved-k is measured on an every-Nth sample of ≤%d forwarded "+
			"requests per cell; re-identification attacks the first %d pseudonym series "+
			"per cell with ≤%d boxes each (LT-consistency intersection against the full "+
			"PHL); \"link p95\" is the Tracking attacker's cross-rotation linkability "+
			"over ≤400 rotation boundaries, \"-\" where the approach never rotates.",
			compAgents, compDays, compK, compCaps.measure, compCaps.users, compCaps.boxes),
	}
	for _, r := range compFrontier(compAgents, compDays, compSeed, compK, compCaps) {
		linkCell := "-"
		if r.LinkP95 >= 0 {
			linkCell = fmt.Sprintf("%.2f", r.LinkP95)
		}
		t.AddRow(r.Scenario, r.Approach, r.Requests,
			fmt.Sprintf("%.1f", r.ForwardedPct),
			fmt.Sprintf("%.4g", r.MeanAreaKm2),
			fmt.Sprintf("%.0f", r.MeanDeferS),
			fmt.Sprintf("%.0f", r.KP5),
			fmt.Sprintf("%.0f", r.KP50),
			fmt.Sprintf("%.1f", r.BelowKPct),
			fmt.Sprintf("%.1f", r.ReidPct),
			fmt.Sprintf("%.1f", r.MeanAnonSet),
			linkCell)
	}
	return t
}
