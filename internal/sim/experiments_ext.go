package sim

import (
	"fmt"

	"histanon/internal/baseline"

	"histanon/internal/deploy"
	"histanon/internal/generalize"
	"histanon/internal/geo"
	"histanon/internal/metrics"
	"histanon/internal/mixzone"
	"histanon/internal/mobility"
	"histanon/internal/phl"
	"histanon/internal/sp"
	"histanon/internal/ts"
)

// E11 runs the deployment-area analysis of §7 direction (b): for one
// city's movement patterns, which (service tolerance, k) combinations
// are deployable, which need unlinking support, and which are hopeless.
func E11() *Table {
	t := &Table{
		ID:      "E11",
		Title:   "deployment-area feasibility (120 users, 7 days)",
		Columns: []string{"tolerance", "k", "feasible %", "covered %", "verdict"},
		Notes:   "covered = feasible or an unlinking opportunity exists; target 90%",
	}
	cfg := mobility.DefaultConfig()
	cfg.Users = 120
	cfg.Days = 7
	world := mobility.Generate(cfg)
	store := phl.NewStore()
	for _, ev := range world.Events {
		store.Record(ev.User, ev.Point)
	}
	idx := deploy.BuildIndex(store)

	for _, tc := range []struct {
		label string
		tol   generalize.Tolerance
	}{
		{"0.25 km^2 / 5 min", generalize.Tolerance{MaxWidth: 500, MaxHeight: 500, MaxDuration: 300}},
		{"1 km^2 / 15 min", generalize.Tolerance{MaxWidth: 1000, MaxHeight: 1000, MaxDuration: 900}},
		{"4 km^2 / 30 min", generalize.Tolerance{MaxWidth: 2000, MaxHeight: 2000, MaxDuration: 1800}},
	} {
		for _, k := range []int{2, 5, 10} {
			rep, err := deploy.Analyze(deploy.Input{
				Store:      store,
				Index:      idx,
				Metric:     geo.STMetric{TimeScale: 1},
				K:          k,
				Tolerance:  tc.tol,
				Divergence: mixzone.Divergence{MinAngle: 0.3},
			})
			if err != nil {
				panic(fmt.Sprintf("E11: %v", err))
			}
			t.AddRow(tc.label, k,
				100*rep.FeasibleRate, 100*rep.CoveredRate, rep.Verdict.String())
		}
	}
	return t
}

// E12 is the randomization ablation for the §7 inference-attack
// defense: without padding, the issuer's exact position frequently lies
// on the forwarded box's boundary (an attacker learns a coordinate
// exactly); with padding the leak disappears at a bounded area cost.
func E12() *Table {
	t := &Table{
		ID:      "E12",
		Title:   "randomization vs boundary-inference leakage (k=5)",
		Columns: []string{"randomization", "boundary hits %", "mean area (km^2)", "hk failures"},
		Notes:   "boundary hit = the exact request coordinate equals a box edge",
	}
	for _, mode := range []struct {
		name string
		seed int64
	}{
		{"off", 0},
		{"on (seed 7)", 7},
	} {
		cfg := DefaultScenario()
		cfg.Mobility.Days = 7
		cfg.Policy = ts.Policy{K: 5}
		cfg.RandomizeSeed = mode.seed
		res := Run(cfg)

		hits, total := 0, 0
		for i, d := range res.Decisions {
			if !d.Generalized || d.Request == nil {
				continue
			}
			total++
			p := res.Requests[i].Point
			b := d.Request.Context
			if b.Area.MinX == p.P.X || b.Area.MaxX == p.P.X ||
				b.Area.MinY == p.P.Y || b.Area.MaxY == p.P.Y ||
				b.Time.Start == p.T || b.Time.End == p.T {
				hits++
			}
		}
		area, _ := res.GeneralizedStats()
		t.AddRow(mode.name,
			100*float64(hits)/float64(total),
			area.Mean()/1e6,
			res.Server.Counters.Get("hk_failures"))
	}
	return t
}

// E13 measures the service-latency dimension the per-message model
// hides: the online Gedik–Liu engine defers requests until k actual
// senders co-occur, so QoS degrades with k — while Algorithm 1 answers
// immediately at any k because it only needs k *potential* senders
// (the paper's §2 distinction between the two requirements).
func E13() *Table {
	t := &Table{
		ID:      "E13",
		Title:   "online Gedik-Liu engine: deferral and drops vs k (80 users, 2 days)",
		Columns: []string{"anonymizer", "k", "cloaked %", "dropped %", "mean deferral (s)"},
		Notes:   "radius 1.5 km, deadline 900 s; histanon generalizes immediately (potential senders suffice)",
	}
	cfg := mobility.DefaultConfig()
	cfg.Users = 80
	cfg.Days = 2
	world := mobility.Generate(cfg)
	stream := world.Requests()

	for _, k := range []int{2, 5, 10} {
		e := baseline.NewGedikLiuEngine(k, 1500, 900)
		var outs []baseline.Outcome
		for _, ev := range stream {
			outs = append(outs, e.Submit(baseline.Request{User: ev.User, Point: ev.Point})...)
		}
		outs = append(outs, e.Flush()...)
		cloaked, dropped := 0, 0
		deferS := &metrics.Summary{}
		for _, o := range outs {
			if o.Cloaked {
				cloaked++
				deferS.Add(float64(o.Deferral))
			} else {
				dropped++
			}
		}
		total := float64(len(outs))
		t.AddRow("gedik-liu (online)", k, 100*float64(cloaked)/total, 100*float64(dropped)/total, deferS.Mean())
	}
	t.AddRow("histanon", "any", 100.0, 0.0, 0.0)
	return t
}

// E14 tests the paper's §5.1 assumption with a sharper adversary: a
// naive-Bayes attacker that weights candidates by how densely their
// histories populate the forwarded boxes, instead of treating the
// anonymity set as uniform. If Algorithm 1's boxes admit skewed
// posteriors, the *effective* anonymity (2^entropy) is lower than the
// nominal k.
func E14() *Table {
	t := &Table{
		ID:      "E14",
		Title:   "effective anonymity under a Bayesian attacker",
		Columns: []string{"k", "hardening", "mean effective k", "min effective k", "mean top confidence", "confident IDs %"},
		Notes:   "effective k = 2^entropy of the issuer posterior; confident ID = top posterior > 0.5; witness-samples balances in-box densities",
	}
	for _, mode := range []struct {
		k        int
		seed     int64
		wsamples int
		name     string
	}{
		{2, 0, 0, "none"},
		{5, 0, 0, "none"},
		{10, 0, 0, "none"},
		{5, 7, 0, "randomize"},
		{5, 0, 5, "witness-samples=5"},
		{5, 7, 5, "both"},
	} {
		k := mode.k
		cfg := DefaultScenario()
		cfg.Policy = ts.Policy{K: k}
		cfg.RandomizeSeed = mode.seed
		cfg.WitnessSamples = mode.wsamples
		res := Run(cfg)
		effK := &metrics.Summary{}
		conf := &metrics.Summary{}
		confident := 0
		series := res.ExposedSeries()
		for _, s := range series {
			rep := sp.Weighted(res.Server.Store(), s.Boxes)
			effK.Add(rep.EffectiveK)
			conf.Add(rep.TopConfidence)
			if rep.TopConfidence > 0.5 {
				confident++
			}
		}
		pct := 0.0
		if len(series) > 0 {
			pct = 100 * float64(confident) / float64(len(series))
		}
		t.AddRow(k, mode.name, effK.Mean(), effK.Min(), conf.Mean(), pct)
	}
	return t
}
