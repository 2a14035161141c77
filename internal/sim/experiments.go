package sim

import (
	"fmt"
	"sort"
	"strings"

	"histanon/internal/anon"
	"histanon/internal/baseline"
	"histanon/internal/generalize"
	"histanon/internal/geo"
	"histanon/internal/link"
	"histanon/internal/metrics"
	"histanon/internal/mixzone"
	"histanon/internal/mobility"
	"histanon/internal/phl"
	"histanon/internal/sp"
	"histanon/internal/stindex"
	"histanon/internal/ts"
	"histanon/internal/wire"
)

// Experiment pairs an identifier with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func() *Table
}

// All returns the experiment suite in order. IDs follow DESIGN.md's
// experiment index. Every table is deterministic, and
// TestExperimentTablesMatchDoc holds each to EXPERIMENTS.md.
func All() []Experiment {
	return []Experiment{
		{"E2", "anonymity level k vs cloaked resolution, by user density", E2},
		{"E3", "trace length vs HK preservation: fixed-k vs k'-decay (§6.2)", E3},
		{"E4", "tolerance constraints vs generalization failure rate", E4},
		{"E5", "k vs unlinking frequency and service disruption", E5},
		{"E6", "Theorem 1: SP re-identification under historical k-anonymity", E6},
		{"E7", "baseline comparison: per-request vs historical anonymity", E7},
		{"E8", "tracking attacker vs unlinking: linked groups and identification", E8},
		{"E11", "deployment-area feasibility analysis (§7 direction b)", E11},
		{"E12", "randomization vs boundary-inference leakage (§7)", E12},
		{"E13", "online Gedik-Liu deferral dynamics vs immediate generalization", E13},
		{"E14", "effective anonymity under a Bayesian (density-weighted) attacker", E14},
		{"E-comp-frontier", "privacy vs QoS frontier across four approaches", ECompFrontier},
	}
}

// ByID returns the experiment with the given identifier
// (case-insensitive, so `-e e-comp-frontier` works from the CLI).
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// E2 sweeps user density and k, reporting the spatial and temporal
// resolution cost of historical k-anonymity (the anonymity–QoS
// trade-off of §6.2).
func E2() *Table {
	t := &Table{
		ID:      "E2",
		Title:   "cloaked resolution vs k and density",
		Columns: []string{"users", "k", "mean area (km^2)", "p95 area (km^2)", "mean interval (s)"},
		Notes:   "generalized requests only; unlimited tolerance",
	}
	for _, users := range []int{60, 120, 240} {
		for _, k := range []int{2, 5, 10, 20} {
			cfg := DefaultScenario()
			cfg.Mobility.Users = users
			cfg.Mobility.Days = 7
			cfg.Policy = ts.Policy{K: k}
			res := Run(cfg)
			area, interval := res.GeneralizedStats()
			t.AddRow(users, k, area.Mean()/1e6, area.Quantile(0.95)/1e6, interval.Mean())
		}
	}
	return t
}

// E3 compares the fixed-k strategy against the §6.2 k'-decay refinement
// on traces of growing length: the paper argues over-provisioning
// witnesses keeps historical k-anonymity sustainable on long traces.
func E3() *Table {
	t := &Table{
		ID:      "E3",
		Title:   "trace length vs HK preservation: fixed-k vs k'-decay (k=5)",
		Columns: []string{"trace len", "strategy", "all-steps-HK %", "late-steps-HK %", "final-step area (km^2)"},
		Notes:   "tolerance 2x2 km, 30 min; decay starts at k'=2k; late steps exclude the first element",
	}
	const k = 5
	cfg := mobility.DefaultConfig()
	cfg.Users = 150
	cfg.Days = 5
	world := mobility.Generate(cfg)
	store := phl.NewStore()
	idx := stindex.NewGrid(500, 1800)
	for _, ev := range world.Events {
		store.Record(ev.User, ev.Point)
		idx.Insert(ev.User, ev.Point)
	}
	g := &generalize.Generalizer{Index: idx, Store: store, Metric: geo.STMetric{TimeScale: 1}}
	tol := generalize.Tolerance{MaxWidth: 2000, MaxHeight: 2000, MaxDuration: 1800}

	// Trace points: each commuter's request events.
	traces := map[phl.UserID][]geo.STPoint{}
	commuter := map[phl.UserID]bool{}
	for _, a := range world.Agents {
		commuter[a.User] = a.Commuter
	}
	for _, ev := range world.Requests() {
		if commuter[ev.User] {
			traces[ev.User] = append(traces[ev.User], ev.Point)
		}
	}
	users := make([]phl.UserID, 0, len(traces))
	for u := range traces {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })

	for _, length := range []int{2, 4, 6, 8} {
		for _, strat := range []struct {
			name  string
			sched generalize.DecaySchedule
		}{
			{"fixed-k", generalize.DecaySchedule{Target: k}},
			{"k'-decay", generalize.DecaySchedule{Target: k, Initial: 2 * k, Step: 1}},
		} {
			ok, total := 0, 0
			lateOK, lateTotal := 0, 0
			finalArea := &metrics.Summary{}
			for _, u := range users {
				tr := traces[u]
				if len(tr) < length {
					continue
				}
				total++
				sess := generalize.NewSession(g, u, strat.sched)
				allHK := true
				var last generalize.Result
				for step, q := range tr[:length] {
					res, found := sess.Generalize(q, tol)
					if !found {
						allHK = false
						break
					}
					allHK = allHK && res.HKAnonymity
					if step > 0 {
						lateTotal++
						if res.HKAnonymity {
							lateOK++
						}
					}
					last = res
				}
				if allHK {
					ok++
				}
				finalArea.Add(last.Box.Area.Area())
			}
			t.AddRow(length, strat.name,
				100*float64(ok)/float64(total),
				100*float64(lateOK)/float64(lateTotal),
				finalArea.Mean()/1e6)
		}
	}
	return t
}

// E4 sweeps the tolerance constraints of §6.1: the stricter the service,
// the more often Algorithm 1 must report HK-anonymity = false.
func E4() *Table {
	t := &Table{
		ID:      "E4",
		Title:   "tolerance constraints vs generalization failure rate (k=5)",
		Columns: []string{"max area", "max window", "failure %", "mean fwd area (km^2)"},
		Notes:   "failure = Algorithm 1 returned HK-anonymity false",
	}
	for _, tc := range []struct {
		label string
		tol   generalize.Tolerance
	}{
		{"0.25 km^2", generalize.Tolerance{MaxWidth: 500, MaxHeight: 500, MaxDuration: 300}},
		{"1 km^2", generalize.Tolerance{MaxWidth: 1000, MaxHeight: 1000, MaxDuration: 900}},
		{"4 km^2", generalize.Tolerance{MaxWidth: 2000, MaxHeight: 2000, MaxDuration: 1800}},
		{"16 km^2", generalize.Tolerance{MaxWidth: 4000, MaxHeight: 4000, MaxDuration: 3600}},
		{"unlimited", generalize.Unlimited},
	} {
		cfg := DefaultScenario()
		cfg.Mobility.Days = 7
		cfg.Policy = ts.Policy{K: 5}
		cfg.Tolerance = tc.tol
		res := Run(cfg)
		area, _ := res.GeneralizedStats()
		window := "inf"
		if tc.tol.MaxDuration > 0 {
			window = fmt.Sprintf("%d s", tc.tol.MaxDuration)
		}
		t.AddRow(tc.label, window, 100*res.FailureRate(), area.Mean()/1e6)
	}
	return t
}

// E5 sweeps k under a fixed service tolerance and reports the unlinking
// (pseudonym rotation) frequency — the QoS-vs-anonymity-vs-unlinking
// triangle of §6.2.
func E5() *Table {
	t := &Table{
		ID:      "E5",
		Title:   "k vs unlinking frequency (tolerance 1 km^2, 15 min)",
		Columns: []string{"k", "unlinkings/user/day", "suppressed", "at-risk events"},
	}
	for _, k := range []int{2, 5, 10, 20} {
		cfg := DefaultScenario()
		cfg.Mobility.Days = 7
		cfg.Policy = ts.Policy{K: k}
		cfg.Tolerance = generalize.Tolerance{MaxWidth: 1000, MaxHeight: 1000, MaxDuration: 900}
		res := Run(cfg)
		t.AddRow(k,
			res.UnlinkingsPerUserDay(),
			res.Server.Counters.Get("suppressed"),
			res.Server.Counters.Get("at_risk"))
	}
	return t
}

// E6 validates Theorem 1 end to end: after full LBQID exposures, the
// adversarial SP's candidate set for every exposed series must hold at
// least k users, and nobody is uniquely identified.
func E6() *Table {
	t := &Table{
		ID:      "E6",
		Title:   "Theorem 1: adversary anonymity sets after full LBQID exposure",
		Columns: []string{"k", "exposed users", "min AS", "mean AS", "identified"},
		Notes:   "|AS| = LT-consistent candidate set of the exposing pseudonym's series",
	}
	for _, k := range []int{2, 5, 10} {
		cfg := DefaultScenario()
		cfg.Policy = ts.Policy{K: k}
		res := Run(cfg)
		attacker := &sp.Attacker{Knowledge: res.Server.Store()}
		series := res.ExposedSeries()
		minAS, sumAS, identified := -1, 0, 0
		for _, reqs := range series {
			rep := attacker.AttackSeries(reqs)
			n := len(rep.Candidates)
			if minAS < 0 || n < minAS {
				minAS = n
			}
			sumAS += n
			if rep.Identified {
				identified++
			}
		}
		mean := 0.0
		if len(series) > 0 {
			mean = float64(sumAS) / float64(len(series))
		}
		if minAS < 0 {
			minAS = 0
		}
		t.AddRow(k, len(series), minAS, mean, identified)
	}
	return t
}

// E7 runs the same workload through the baseline anonymizers and
// through the full historical pipeline: every baseline achieves
// per-request k-anonymity yet exposes the request *series*, which the
// attacker collapses to one candidate.
func E7() *Table {
	t := &Table{
		ID:      "E7",
		Title:   "per-request vs historical anonymity across anonymizers (k=5)",
		Columns: []string{"anonymizer", "cloaked %", "mean area (km^2)", "series identified %", "mean series AS"},
		Notes:   "series = all of one user's cloaked requests under one pseudonym",
	}
	const k = 5
	cfg := mobility.DefaultConfig()
	cfg.Users = 120
	cfg.Days = 7
	world := mobility.Generate(cfg)
	store := phl.NewStore()
	for _, ev := range world.Events {
		store.Record(ev.User, ev.Point)
	}
	// The compared workload is the recurring commute requests — the ones
	// an LBQID-style quasi-identifier feeds on. Random background
	// requests would dominate the series metric identically for every
	// scheme without adding signal.
	commuteServices := map[string]bool{"navigation": true, "news": true, "weather": true}
	var reqs []baseline.Request
	byUser := map[phl.UserID][]int{}
	for _, ev := range world.Requests() {
		if !commuteServices[ev.Service] {
			continue
		}
		byUser[ev.User] = append(byUser[ev.User], len(reqs))
		reqs = append(reqs, baseline.Request{User: ev.User, Point: ev.Point})
	}
	city := geo.Rect{MinX: 0, MinY: 0, MaxX: cfg.Width, MaxY: cfg.Height}

	for _, a := range []baseline.Anonymizer{
		baseline.NoOp{},
		baseline.FixedGrid{Cell: 1000, Window: 900},
		baseline.GruteserGrunwald{Store: store, City: city, Window: 450},
		baseline.GedikLiu{MaxRadius: 1500, MaxDefer: 900},
	} {
		cloaked := a.CloakAll(reqs, k)
		okCount := 0
		areas := &metrics.Summary{}
		for _, c := range cloaked {
			if c.OK {
				okCount++
				areas.Add(c.Box.Area.Area())
			}
		}
		identified, asSum, users := 0, 0, 0
		for _, idxs := range byUser {
			var boxes []geo.STBox
			for _, i := range idxs {
				if cloaked[i].OK {
					boxes = append(boxes, cloaked[i].Box)
				}
			}
			if len(boxes) == 0 {
				continue
			}
			users++
			as := anon.HistoricalAnonymitySet(store, boxes)
			asSum += len(as)
			if len(as) == 1 {
				identified++
			}
		}
		t.AddRow(a.Name(),
			100*float64(okCount)/float64(len(reqs)),
			areas.Mean()/1e6,
			100*float64(identified)/float64(users),
			float64(asSum)/float64(users))
	}

	// The historical pipeline on the same city parameters: the series
	// metric runs over the LBQID-matching request series (Theorem 1's
	// scope; see ScenarioResult.ExposedSeries).
	scfg := DefaultScenario()
	scfg.Mobility = cfg
	scfg.Mobility.Days = 14 // two weeks so LBQIDs actually expose
	scfg.Policy = ts.Policy{K: k}
	res := Run(scfg)
	attacker := &sp.Attacker{Knowledge: res.Server.Store()}
	identified, asSum, users := 0, 0, 0
	for _, series := range res.ExposedSeries() {
		rep := attacker.AttackSeries(series)
		users++
		asSum += len(rep.Candidates)
		if rep.Identified {
			identified++
		}
	}
	area, _ := res.GeneralizedStats()
	meanAS := 0.0
	if users > 0 {
		meanAS = float64(asSum) / float64(users)
	}
	t.AddRow("histanon",
		100.0,
		area.Mean()/1e6,
		100*float64(identified)/float64(users),
		meanAS)
	return t
}

// E8 measures the Unlinking action of §6.3 directly: after each
// pseudonym rotation, how strongly can a multi-target-tracking attacker
// still bind the new pseudonym's first requests to the old pseudonym's
// last ones? A bare rotation (no quiet window) leaves the trajectory
// continuous and trackable; an on-demand mix zone inserts a service
// blackout that decays tracking confidence below Θ.
func E8() *Table {
	t := &Table{
		ID:      "E8",
		Title:   "cross-rotation linkability (k=5, tolerance 1 km^2)",
		Columns: []string{"mixing", "rotations", "tracking mean", "tracking p95", "unlinked@0.5 %", "+haunt p95"},
		Notes:   "likelihood = max Link() between old- and new-pseudonym requests of the same user; +haunt adds the recurring-trace profiler of §5.2",
	}
	tracker := link.Tracking{MaxSpeed: 17, HalfLife: 900}
	for _, mode := range []struct {
		name     string
		onDemand mixzone.OnDemand
	}{
		{"bare rotation", mixzone.OnDemand{Quiet: 1, FallbackRadius: 1,
			Divergence: mixzone.Divergence{MinAngle: 1e-9}}},
		{"on-demand zone (15 min quiet)", mixzone.OnDemand{Quiet: 900, FallbackRadius: 800,
			Divergence: mixzone.Divergence{MinAngle: 0.3}}},
	} {
		cfg := DefaultScenario()
		cfg.Mobility.Days = 7
		cfg.Policy = ts.Policy{K: 5}
		cfg.Tolerance = generalize.Tolerance{MaxWidth: 1000, MaxHeight: 1000, MaxDuration: 900}
		cfg.OnDemand = mode.onDemand
		res := Run(cfg)

		// Forwarded requests per user in time order; consecutive
		// pseudonyms delimit rotations.
		byUser := map[phl.UserID][]*ts.Decision{}
		for i := range res.Decisions {
			d := &res.Decisions[i]
			if d.Forwarded && d.Request != nil {
				byUser[res.Requests[i].User] = append(byUser[res.Requests[i].User], d)
			}
		}
		// The haunt profiler sees the whole SP log.
		haunt := link.NewHaunt(res.Provider.Requests(), 750, 7200, 2)
		combined := link.Max{tracker, haunt}

		likelihoods := &metrics.Summary{}
		hauntLikelihoods := &metrics.Summary{}
		unlinked := 0
		for _, decs := range byUser {
			for i := 1; i < len(decs); i++ {
				if decs[i].Request.Pseudonym == decs[i-1].Request.Pseudonym {
					continue
				}
				// Rotation boundary: compare up to 4 requests on each side.
				lo := i - 4
				if lo < 0 {
					lo = 0
				}
				hi := i + 4
				if hi > len(decs) {
					hi = len(decs)
				}
				var b, a []*ts.Decision
				for _, d := range decs[lo:i] {
					if d.Request.Pseudonym == decs[i-1].Request.Pseudonym {
						b = append(b, d)
					}
				}
				for _, d := range decs[i:hi] {
					if d.Request.Pseudonym == decs[i].Request.Pseudonym {
						a = append(a, d)
					}
				}
				l := link.MaxPairLikelihood(requestsOf(b), requestsOf(a), tracker)
				likelihoods.Add(l)
				hauntLikelihoods.Add(link.MaxPairLikelihood(requestsOf(b), requestsOf(a), combined))
				if l < 0.5 {
					unlinked++
				}
			}
		}
		pct := 0.0
		if likelihoods.N() > 0 {
			pct = 100 * float64(unlinked) / float64(likelihoods.N())
		}
		t.AddRow(mode.name,
			res.Server.Counters.Get("unlinkings"),
			likelihoods.Mean(),
			likelihoods.Quantile(0.95),
			pct,
			hauntLikelihoods.Quantile(0.95))
	}
	return t
}

func requestsOf(decs []*ts.Decision) []*wire.Request {
	out := make([]*wire.Request, len(decs))
	for i, d := range decs {
		out[i] = d.Request
	}
	return out
}
