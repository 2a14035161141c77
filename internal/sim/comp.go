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
// across each pseudonym's forwarded boxes (the internal/sp attack
// primitive); cross-rotation linkability uses internal/link's Tracking
// attacker. QoS is suppression, cloak area and deferral latency.
//
// RunCompBench also measures the million-agent streaming rows (the
// tentpole: StreamDriver generate + ingest). cmd/lbbench -compbench
// writes BENCH_comp.json; the E-comp-stream / E-comp-frontier
// experiments re-render the checked-in record so `lbbench -md`
// regenerates EXPERIMENTS.md §E-comp byte-for-byte without re-running
// minutes of benchmark.

package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"histanon/internal/baseline"
	"histanon/internal/generalize"
	"histanon/internal/geo"
	"histanon/internal/httpapi"
	"histanon/internal/link"
	"histanon/internal/mixzone"
	"histanon/internal/mobility"
	"histanon/internal/phl"
	"histanon/internal/stindex"
	"histanon/internal/tgran"
	"histanon/internal/ts"
	"histanon/internal/wire"
)

// CompBenchRecord is the checked-in record's filename.
const CompBenchRecord = "BENCH_comp.json"

// StreamRow is one million-agent streaming measurement.
type StreamRow struct {
	Scenario     string  `json:"scenario"`
	Mode         string  `json:"mode"` // "generate" or "ingest"
	Agents       int     `json:"agents"`
	Events       int64   `json:"events"`
	Requests     int64   `json:"requests"`
	Workers      int     `json:"workers"`
	EventsPerSec float64 `json:"events_per_sec"`
	PeakHeapMB   float64 `json:"peak_heap_mb"`
	Seconds      float64 `json:"seconds"`
}

// CompRow is one (scenario, approach) cell of the privacy-vs-QoS
// frontier.
type CompRow struct {
	Scenario string `json:"scenario"`
	Approach string `json:"approach"`
	Requests int    `json:"requests"`
	// QoS side.
	ForwardedPct  float64 `json:"forwarded_pct"`
	SuppressedPct float64 `json:"suppressed_pct"`
	MeanAreaKm2   float64 `json:"mean_area_km2"`
	MeanDeferS    float64 `json:"mean_defer_s"`
	// Privacy side.
	KP5         float64 `json:"achieved_k_p5"`
	KP50        float64 `json:"achieved_k_p50"`
	BelowKPct   float64 `json:"below_k_pct"`
	ReidPct     float64 `json:"reid_pct"`
	MeanAnonSet float64 `json:"mean_anonymity_set"`
	// LinkP95 is the cross-rotation tracking linkability (internal/link)
	// at the 95th percentile; -1 for approaches without rotations.
	LinkP95 float64 `json:"link_p95"`
}

// CompBenchReport is the machine-readable E-comp record
// (BENCH_comp.json).
type CompBenchReport struct {
	GOMAXPROCS   int         `json:"gomaxprocs"`
	K            int         `json:"k"`
	CompAgents   int         `json:"comp_agents"`
	CompDays     int         `json:"comp_days"`
	StreamAgents int         `json:"stream_agents"`
	AttackUsers  int         `json:"attack_users"`
	AttackBoxes  int         `json:"attack_boxes"`
	MeasureReqs  int         `json:"measure_requests"`
	StreamRows   []StreamRow `json:"stream_rows"`
	CompRows     []CompRow   `json:"comp_rows"`
}

// WriteJSON emits the report for BENCH-style records.
func (r CompBenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// LoadCompBench reads a checked-in BENCH_comp.json record.
func LoadCompBench(path string) (CompBenchReport, error) {
	var rep CompBenchReport
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	err = json.Unmarshal(data, &rep)
	return rep, err
}

// CompBenchOptions sizes a RunCompBench run. The zero value is not
// usable; start from DefaultCompBenchOptions.
type CompBenchOptions struct {
	// Seed drives every workload.
	Seed int64
	// K is the anonymity target shared by all approaches.
	K int
	// CompAgents and CompDays size the comparison workloads (these are
	// materialized: the attacks need the full PHL).
	CompAgents, CompDays int
	// StreamAgents sizes the streaming rows (never materialized).
	StreamAgents int
	// Workers is the driver pool size (0: the driver default).
	Workers int
	// IngestScenario names the scenario whose 1M-agent stream is also
	// pushed through the binary batch ingest path.
	IngestScenario string
	// AttackUsers caps how many pseudonym series the re-identification
	// attack runs per cell; AttackBoxes caps boxes per series (the
	// LT-consistency scan is O(users × boxes)). MeasureRequests caps the
	// achieved-k sample per cell (deterministic every-Nth stride). The
	// caps are recorded in the report and stated in the table notes —
	// no silent truncation.
	AttackUsers, AttackBoxes, MeasureRequests int
}

// DefaultCompBenchOptions is the checked-in record's configuration:
// four 1M-agent streaming rows plus one ingest row, and an
// 800-agent × 2-day comparison grid (4 scenarios × 4 approaches).
func DefaultCompBenchOptions() CompBenchOptions {
	return CompBenchOptions{
		Seed:            1,
		K:               5,
		CompAgents:      800,
		CompDays:        2,
		StreamAgents:    1_000_000,
		Workers:         4,
		IngestScenario:  "rural",
		AttackUsers:     250,
		AttackBoxes:     8,
		MeasureRequests: 1200,
	}
}

// RunCompBench measures the streaming rows and the comparison frontier.
// Progress goes to stderr; the run takes a few minutes at the default
// sizes.
func RunCompBench(o CompBenchOptions) CompBenchReport {
	rep := CompBenchReport{
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		K:            o.K,
		CompAgents:   o.CompAgents,
		CompDays:     o.CompDays,
		StreamAgents: o.StreamAgents,
		AttackUsers:  o.AttackUsers,
		AttackBoxes:  o.AttackBoxes,
		MeasureReqs:  o.MeasureRequests,
	}
	for _, sc := range mobility.Scenarios() {
		fmt.Fprintf(os.Stderr, "compbench: streaming %s x%d (generate)\n", sc.Name, o.StreamAgents)
		rep.StreamRows = append(rep.StreamRows,
			runStreamRow(sc, "generate", o.StreamAgents, o.Seed, o.Workers, nil))
	}
	if sc, ok := mobility.ScenarioByName(o.IngestScenario); ok {
		fmt.Fprintf(os.Stderr, "compbench: streaming %s x%d (ingest)\n", sc.Name, o.StreamAgents)
		h := httpapi.New(newIngestServer(o.K))
		rep.StreamRows = append(rep.StreamRows,
			runStreamRow(sc, "ingest", o.StreamAgents, o.Seed, o.Workers, h))
	}
	caps := attackCaps{users: o.AttackUsers, boxes: o.AttackBoxes, measure: o.MeasureRequests}
	for _, sc := range mobility.Scenarios() {
		fmt.Fprintf(os.Stderr, "compbench: comparing approaches on %s x%d\n", sc.Name, o.CompAgents)
		w := buildCompWorkload(sc, o.CompAgents, o.CompDays, o.Seed)
		for _, ap := range compApproaches() {
			outs := ap.run(w, o.K)
			rep.CompRows = append(rep.CompRows, evalApproach(w, ap.name, outs, o.K, caps))
		}
	}
	return rep
}

// newIngestServer is a TS with no services: the ingest rows measure the
// location-update pipeline (decode → PHL → index), not request serving.
func newIngestServer(k int) *ts.Server {
	return ts.New(ts.Config{DefaultPolicy: ts.Policy{K: k}},
		ts.OutboxFunc(func(*wire.Request) {}))
}

// runStreamRow drives one scenario at full scale and snapshots
// throughput and peak heap.
func runStreamRow(sc mobility.Scenario, mode string, agents int, seed int64, workers int, h *httpapi.Handler) StreamRow {
	cfg := sc.Config(agents, seed)
	s := mobility.NewStream(cfg)
	d := &StreamDriver{Workers: workers}
	runtime.GC()
	hw := watchHeap()
	start := time.Now()
	if mode == "ingest" {
		d.Ingest(s, h)
	} else {
		d.Generate(s)
	}
	secs := time.Since(start).Seconds()
	peak := hw.Close()
	events := d.Stats.Events.Load()
	return StreamRow{
		Scenario:     sc.Name,
		Mode:         mode,
		Agents:       agents,
		Events:       events,
		Requests:     d.Stats.Requests.Load(),
		Workers:      d.workers(),
		EventsPerSec: float64(events) / secs,
		PeakHeapMB:   peak,
		Seconds:      secs,
	}
}

// heapWatch samples HeapAlloc on a ticker; Close returns the peak MB.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchHeap() *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		var ms runtime.MemStats
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > w.peak {
					w.peak = ms.HeapAlloc
				}
			}
		}
	}()
	return w
}

func (w *heapWatch) Close() float64 {
	close(w.stop)
	<-w.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > w.peak {
		w.peak = ms.HeapAlloc
	}
	return float64(w.peak) / (1 << 20)
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

// compApproaches returns the four contenders in report order. The names
// are part of the BENCH_comp.json schema (checkexpdocs.sh greps them
// out of EXPERIMENTS.md via the record).
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
func evalApproach(w *compWorkload, approach string, outs []compOutcome, k int, caps attackCaps) CompRow {
	row := CompRow{Scenario: w.scenario, Approach: approach, Requests: len(w.reqs), LinkP95: -1}
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

	// Re-identification: the §5 recording SP intersects LT-consistent
	// candidates across each pseudonym's forwarded boxes. A series is
	// re-identified when the intersection is exactly its issuer.
	type seriesKey struct {
		u   phl.UserID
		seg int
	}
	series := map[seriesKey][]geo.STBox{}
	var order []seriesKey
	for _, i := range fwdIdx {
		key := seriesKey{w.reqs[i].User, outs[i].seg}
		if _, seen := series[key]; !seen {
			order = append(order, key)
		}
		if len(series[key]) < caps.boxes {
			series[key] = append(series[key], outs[i].box)
		}
	}
	attacked, identified := 0, 0
	var anonSum float64
	for _, key := range order {
		if attacked >= caps.users {
			break
		}
		cands := w.store.LTConsistentUsers(series[key])
		attacked++
		anonSum += float64(len(cands))
		if len(cands) == 1 && cands[0] == key.u {
			identified++
		}
	}
	if attacked > 0 {
		row.ReidPct = 100 * float64(identified) / float64(attacked)
		row.MeanAnonSet = anonSum / float64(attacked)
	}

	// Cross-rotation linkability: can the Tracking attacker stitch
	// consecutive segments back together across the zone silence?
	if vals := crossSegmentLink(w, outs, fwdIdx); len(vals) > 0 {
		sort.Float64s(vals)
		idx := len(vals) * 95 / 100
		if idx >= len(vals) {
			idx = len(vals) - 1
		}
		row.LinkP95 = vals[idx]
	}
	return row
}

// crossSegmentLink computes, for every pseudonym rotation boundary, the
// internal/link Tracking likelihood between the old segment's last
// forwarded requests and the new segment's first ones.
func crossSegmentLink(w *compWorkload, outs []compOutcome, fwdIdx []int) []float64 {
	perUser := map[phl.UserID][]int{}
	var users []phl.UserID
	rotated := false
	for _, i := range fwdIdx {
		u := w.reqs[i].User
		if _, seen := perUser[u]; !seen {
			users = append(users, u)
		}
		perUser[u] = append(perUser[u], i)
		if outs[i].seg > 0 {
			rotated = true
		}
	}
	if !rotated {
		return nil
	}
	tracker := link.Tracking{MaxSpeed: 17, HalfLife: 900}
	toWire := func(idxs []int) []*wire.Request {
		out := make([]*wire.Request, len(idxs))
		for j, i := range idxs {
			out[j] = &wire.Request{Context: outs[i].box}
		}
		return out
	}
	var vals []float64
	const maxBoundaries = 400 // stated in the table notes
	for _, u := range users {
		idxs := perUser[u]
		for j := 1; j < len(idxs) && len(vals) < maxBoundaries; j++ {
			if outs[idxs[j]].seg == outs[idxs[j-1]].seg {
				continue
			}
			tail := idxs[:j]
			if len(tail) > 3 {
				tail = tail[len(tail)-3:]
			}
			head := idxs[j:]
			// Keep only the new segment's first requests.
			if len(head) > 3 {
				head = head[:3]
			}
			vals = append(vals, link.MaxPairLikelihood(toWire(tail), toWire(head), tracker))
		}
		if len(vals) >= maxBoundaries {
			break
		}
	}
	return vals
}

// CompStreamTable renders the streaming rows.
func CompStreamTable(rep CompBenchReport) *Table {
	t := &Table{
		ID:    "E-comp-stream",
		Title: "million-agent streaming workloads (recorded in BENCH_comp.json)",
		Columns: []string{"scenario", "mode", "agents", "events", "requests",
			"workers", "events/s", "peak heap MB", "seconds"},
		Notes: fmt.Sprintf("agents are materialized on demand from (seed, id) — "+
			"resident state is the city layout plus O(workers) scratch, so peak heap "+
			"stays flat in population for generate rows; the ingest row additionally "+
			"pays the server-side PHL+index, which is O(events) by design. "+
			"Measured at GOMAXPROCS=%d; ingest uses the binary /v1/batch channel "+
			"in-process (the E-wire measurement boundary).", rep.GOMAXPROCS),
	}
	for _, r := range rep.StreamRows {
		t.AddRow(r.Scenario, r.Mode, r.Agents, r.Events, r.Requests, r.Workers,
			fmt.Sprintf("%.0f", r.EventsPerSec),
			fmt.Sprintf("%.1f", r.PeakHeapMB),
			fmt.Sprintf("%.1f", r.Seconds))
	}
	return t
}

// CompFrontierTable renders the privacy-vs-QoS frontier.
func CompFrontierTable(rep CompBenchReport) *Table {
	t := &Table{
		ID:    "E-comp-frontier",
		Title: "privacy vs QoS across four approaches (recorded in BENCH_comp.json)",
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
			rep.CompAgents, rep.CompDays, rep.K, rep.MeasureReqs, rep.AttackUsers, rep.AttackBoxes),
	}
	for _, r := range rep.CompRows {
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

// compRecordTable loads the checked-in record and renders one of its
// tables, so `lbbench -md` regenerates §E-comp byte-for-byte without
// re-measuring. A missing record renders an instruction note instead.
func compRecordTable(render func(CompBenchReport) *Table, id, title string) *Table {
	rep, err := LoadCompBench(CompBenchRecord)
	if err != nil {
		return &Table{ID: id, Title: title,
			Notes: "BENCH_comp.json not found — regenerate it with " +
				"`go run ./cmd/lbbench -compbench BENCH_comp.json` from the repo root."}
	}
	return render(rep)
}

// ECompStream is the E-comp-stream experiment (reads BENCH_comp.json).
func ECompStream() *Table {
	return compRecordTable(CompStreamTable, "E-comp-stream",
		"million-agent streaming workloads (recorded in BENCH_comp.json)")
}

// ECompFrontier is the E-comp-frontier experiment (reads BENCH_comp.json).
func ECompFrontier() *Table {
	return compRecordTable(CompFrontierTable, "E-comp-frontier",
		"privacy vs QoS across four approaches (recorded in BENCH_comp.json)")
}
