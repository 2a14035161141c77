// Benchmarks, one family per experiment of DESIGN.md's index, plus the
// E-obs and E-slo overhead rows. They measure the steady-state cost of
// each mechanism in isolation. E1, E9 and E10 are timings only, so these
// are their sole source (EXPERIMENTS.md names the command); the other
// experiments' tables come from cmd/lbbench.
package histanon

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"histanon/internal/baseline"
	"histanon/internal/deploy"
	"histanon/internal/generalize"
	"histanon/internal/geo"
	"histanon/internal/lbqid"
	"histanon/internal/link"
	"histanon/internal/mine"
	"histanon/internal/mobility"
	"histanon/internal/obs"
	"histanon/internal/phl"
	"histanon/internal/sim"
	"histanon/internal/slo"
	"histanon/internal/sp"
	"histanon/internal/stindex"
	"histanon/internal/tgran"
	"histanon/internal/ts"
	"histanon/internal/wire"
)

func fillIndex(idx stindex.Index, n, users int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		idx.Insert(phl.UserID(rng.Intn(users)), geo.STPoint{
			P: geo.Point{X: rng.Float64() * 8000, Y: rng.Float64() * 8000},
			T: int64(rng.Intn(14 * 24 * 3600)),
		})
	}
}

func randQuery(rng *rand.Rand) geo.STPoint {
	return geo.STPoint{
		P: geo.Point{X: rng.Float64() * 8000, Y: rng.Float64() * 8000},
		T: int64(rng.Intn(14 * 24 * 3600)),
	}
}

type namedIndex struct {
	name string
	idx  stindex.Index
}

// benchIndexes returns empty indexes of the three kinds, in the order
// E1 and E10 report them.
func benchIndexes() []namedIndex {
	return []namedIndex{
		{"brute", stindex.NewBrute()},
		{"grid", stindex.NewGrid(500, 1800)},
		{"rtree", stindex.NewRTree()},
	}
}

// BenchmarkE1_FirstElementQuery measures the Algorithm-1 line-5 query
// ("smallest box around q crossed by k user trajectories") per index,
// over n samples of n/50 users.
func BenchmarkE1_FirstElementQuery(b *testing.B) {
	m := geo.STMetric{TimeScale: 1}
	for _, n := range []int{2000, 10000, 50000} {
		indexes := benchIndexes()
		for _, e := range indexes {
			fillIndex(e.idx, n, n/50, 42)
		}
		for _, k := range []int{2, 10} {
			for _, e := range indexes {
				b.Run(fmt.Sprintf("idx=%s/n=%d/k=%d", e.name, n, k), func(b *testing.B) {
					rng := rand.New(rand.NewSource(7))
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						stindex.SmallestEnclosingBox(e.idx, randQuery(rng), k, m, nil)
					}
				})
			}
		}
	}
}

// benchGeneralizer builds a populated generalizer for the session
// benches.
func benchGeneralizer(users int) (*generalize.Generalizer, []geo.STPoint) {
	cfg := mobility.DefaultConfig()
	cfg.Users = users
	cfg.Days = 5
	world := mobility.Generate(cfg)
	store := phl.NewStore()
	idx := stindex.NewGrid(500, 1800)
	for _, ev := range world.Events {
		store.Record(ev.User, ev.Point)
		idx.Insert(ev.User, ev.Point)
	}
	var trace []geo.STPoint
	for _, ev := range world.Requests() {
		if ev.User == world.Agents[0].User {
			trace = append(trace, ev.Point)
		}
	}
	return &generalize.Generalizer{Index: idx, Store: store, Metric: geo.STMetric{TimeScale: 1}}, trace
}

// BenchmarkE2_GeneralizeFirstElement is the per-request cost of
// Algorithm 1's initial-element branch at several k.
func BenchmarkE2_GeneralizeFirstElement(b *testing.B) {
	g, trace := benchGeneralizer(150)
	if len(trace) == 0 {
		b.Fatal("no trace")
	}
	for _, k := range []int{2, 5, 10, 20} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := trace[i%len(trace)]
				if _, ok := g.FirstElement(q, 0, k, generalize.Unlimited); !ok {
					b.Fatal("generalization failed")
				}
			}
		})
	}
}

// BenchmarkE3_SessionTrace runs whole trace sessions under the two
// witness strategies of §6.2.
func BenchmarkE3_SessionTrace(b *testing.B) {
	g, trace := benchGeneralizer(150)
	if len(trace) < 8 {
		b.Fatal("trace too short")
	}
	for _, strat := range []struct {
		name  string
		sched generalize.DecaySchedule
	}{
		{"fixed-k", generalize.DecaySchedule{Target: 5}},
		{"decay", generalize.DecaySchedule{Target: 5, Initial: 10, Step: 1}},
	} {
		b.Run(strat.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sess := generalize.NewSession(g, 0, strat.sched)
				for _, q := range trace[:8] {
					sess.Generalize(q, generalize.Unlimited)
				}
			}
		})
	}
}

// benchServer builds a TS preloaded with crowd trajectories and an
// LBQID for user 0.
func benchServer(tol generalize.Tolerance) *ts.Server {
	server := ts.New(ts.Config{
		DefaultPolicy: ts.Policy{K: 5},
		Services: map[string]ts.ServiceSpec{
			"navigation": {Name: "navigation", Tolerance: tol},
		},
	}, ts.OutboxFunc(func(*wire.Request) {}))
	err := server.AddLBQIDSpec(0, `
lbqid "commute" {
    element area [0,400]x[0,400] time [06:00,10:00]
    recurrence 1.Days
}`)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(9))
	for u := phl.UserID(1); u <= 60; u++ {
		for d := int64(0); d < 5; d++ {
			server.RecordLocation(u, geo.STPoint{
				P: geo.Point{X: rng.Float64() * 400, Y: rng.Float64() * 400},
				T: d*tgran.Day + 7*tgran.Hour + int64(rng.Intn(7200)),
			})
		}
	}
	return server
}

// BenchmarkE4_RequestPath measures the full TS request pipeline
// (matching + generalization + forwarding) for matching and
// non-matching requests.
func BenchmarkE4_RequestPath(b *testing.B) {
	b.Run("matching", func(b *testing.B) {
		server := benchServer(generalize.Unlimited)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := int64(i%5)*tgran.Day + 7*tgran.Hour + int64(i%3600)
			server.Request(0, geo.STPoint{P: geo.Point{X: 200, Y: 200}, T: t}, "navigation", nil)
		}
	})
	b.Run("non-matching", func(b *testing.B) {
		server := benchServer(generalize.Unlimited)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := int64(i%5)*tgran.Day + 14*tgran.Hour + int64(i%3600)
			server.Request(0, geo.STPoint{P: geo.Point{X: 5000, Y: 5000}, T: t}, "navigation", nil)
		}
	})
}

// BenchmarkE5_UnlinkPath measures the failure path: tight tolerance
// forcing generalization failure and an unlinking attempt per request.
func BenchmarkE5_UnlinkPath(b *testing.B) {
	const resetEvery = 20000
	server := benchServer(generalize.Tolerance{MaxWidth: 5, MaxHeight: 5, MaxDuration: 5})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%resetEvery == 0 && i > 0 {
			b.StopTimer()
			server = benchServer(generalize.Tolerance{MaxWidth: 5, MaxHeight: 5, MaxDuration: 5})
			b.StartTimer()
		}
		j := i % resetEvery
		t := int64(j/3600)*tgran.Day + 7*tgran.Hour + int64(j%3600)
		server.Request(0, geo.STPoint{P: geo.Point{X: 200, Y: 200}, T: t}, "navigation", nil)
	}
}

// BenchmarkE6_AttackSeries measures the adversary's LT-consistency
// intersection over a growing series.
func BenchmarkE6_AttackSeries(b *testing.B) {
	store := phl.NewStore()
	rng := rand.New(rand.NewSource(3))
	for u := phl.UserID(0); u < 200; u++ {
		for i := 0; i < 50; i++ {
			store.Record(u, geo.STPoint{
				P: geo.Point{X: rng.Float64() * 8000, Y: rng.Float64() * 8000},
				T: int64(rng.Intn(14 * 24 * 3600)),
			})
		}
	}
	attacker := &sp.Attacker{Knowledge: store}
	for _, series := range []int{4, 16, 64} {
		reqs := make([]*wire.Request, series)
		for i := range reqs {
			c := geo.Point{X: rng.Float64() * 8000, Y: rng.Float64() * 8000}
			ct := int64(rng.Intn(14 * 24 * 3600))
			reqs[i] = &wire.Request{
				Pseudonym: "p",
				Context: geo.STBox{
					Area: geo.Rect{MinX: c.X - 1000, MinY: c.Y - 1000, MaxX: c.X + 1000, MaxY: c.Y + 1000},
					Time: geo.Interval{Start: ct - 1800, End: ct + 1800},
				},
			}
		}
		b.Run(fmt.Sprintf("series=%d", series), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				attacker.AttackSeries(reqs)
			}
		})
	}
}

// BenchmarkE7_Baselines measures the per-request cloaking cost of every
// baseline on an identical batch.
func BenchmarkE7_Baselines(b *testing.B) {
	cfg := mobility.DefaultConfig()
	cfg.Users = 100
	cfg.Days = 3
	world := mobility.Generate(cfg)
	store := phl.NewStore()
	for _, ev := range world.Events {
		store.Record(ev.User, ev.Point)
	}
	var reqs []baseline.Request
	for _, ev := range world.Requests() {
		reqs = append(reqs, baseline.Request{User: ev.User, Point: ev.Point})
		if len(reqs) == 500 {
			break
		}
	}
	city := geo.Rect{MinX: 0, MinY: 0, MaxX: cfg.Width, MaxY: cfg.Height}
	for _, a := range []baseline.Anonymizer{
		baseline.NoOp{},
		baseline.FixedGrid{Cell: 1000, Window: 900},
		baseline.GruteserGrunwald{Store: store, City: city, Window: 450},
		baseline.GedikLiu{MaxRadius: 1500, MaxDefer: 900},
	} {
		b.Run(a.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.CloakAll(reqs, 5)
			}
		})
	}
}

// BenchmarkE8_TrackingLikelihood measures the tracking linker and the
// link-connected component computation.
func BenchmarkE8_TrackingLikelihood(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	mk := func(n int) []*wire.Request {
		out := make([]*wire.Request, n)
		for i := range out {
			out[i] = &wire.Request{
				Pseudonym: wire.Pseudonym(fmt.Sprintf("p%d", i%10)),
				Context: geo.STBox{
					Area: geo.RectAround(geo.Point{X: rng.Float64() * 5000, Y: rng.Float64() * 5000}),
					Time: geo.IntervalAround(int64(rng.Intn(86400))),
				},
			}
		}
		return out
	}
	tr := link.Tracking{MaxSpeed: 17, HalfLife: 900}
	b.Run("likelihood", func(b *testing.B) {
		reqs := mk(2)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Likelihood(reqs[0], reqs[1])
		}
	})
	b.Run("components-200", func(b *testing.B) {
		reqs := mk(200)
		f := link.Max{link.Pseudonym{}, tr}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			link.Components(reqs, f, 0.6)
		}
	})
}

// BenchmarkE9_MatcherOffer measures the continuous LBQID monitoring
// cost: one op offers one random request point to each of a user's
// patterns.
func BenchmarkE9_MatcherOffer(b *testing.B) {
	def := `
lbqid "p%d" {
    element area [%d,%d]x[0,200] time [06:30,09:00]
    element area [%d,%d]x[0,200] time [15:30,19:00]
    recurrence 3.Weekdays * 2.Weeks
}`
	for _, n := range []int{1, 8, 32} {
		var matchers []*lbqid.Matcher
		for i := 0; i < n; i++ {
			q, err := lbqid.ParseOne(fmt.Sprintf(def, i, i*300, i*300+200, i*300+2000, i*300+2200))
			if err != nil {
				b.Fatal(err)
			}
			matchers = append(matchers, lbqid.NewMatcher(q))
		}
		b.Run(fmt.Sprintf("patterns=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := geo.STPoint{
					P: geo.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 200},
					T: int64(i) * 60,
				}
				for _, m := range matchers {
					m.Offer(lbqid.RequestID(i), p)
				}
			}
		})
	}
}

// BenchmarkE10_IndexQueries is the index ablation on both primitives,
// over 50,000 samples of 1,000 users.
func BenchmarkE10_IndexQueries(b *testing.B) {
	const n = 50000
	m := geo.STMetric{TimeScale: 1}
	indexes := benchIndexes()
	for _, e := range indexes {
		fillIndex(e.idx, n, 1000, 11)
	}
	for _, e := range indexes {
		b.Run("box/"+e.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := geo.Point{X: rng.Float64() * 8000, Y: rng.Float64() * 8000}
				ct := int64(rng.Intn(14 * 24 * 3600))
				e.idx.UsersInBox(geo.STBox{
					Area: geo.Rect{MinX: c.X - 500, MinY: c.Y - 500, MaxX: c.X + 500, MaxY: c.Y + 500},
					Time: geo.Interval{Start: ct - 1800, End: ct + 1800},
				})
			}
		})
		b.Run("knn/"+e.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.idx.KNearestUsers(randQuery(rng), 5, m, nil)
			}
		})
	}
}

// BenchmarkE11_ConcurrentThroughput measures whole-server Request
// throughput (monitor → generalize → forward, all on the matching path)
// at 1, 4 and 8 client goroutines, each goroutine issuing as a distinct
// user. With the per-user session locks and the sharded index this
// should scale with cores; the single-global-mutex design it replaced
// was flat.
func BenchmarkE11_ConcurrentThroughput(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", workers), func(b *testing.B) {
			server := sim.NewThroughputServer(sim.ThroughputClients)
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					per := b.N / workers
					if w < b.N%workers {
						per++
					}
					u := phl.UserID(w % sim.ThroughputClients)
					for i := 0; i < per; i++ {
						sim.ThroughputRequest(server, u, i)
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// BenchmarkEObs_Overhead measures the one-goroutine E11 request
// pipeline under each observability setting (EXPERIMENTS.md E-obs):
// span sampling off, the production tail rule (1/1000 head retention
// plus a 1 ms slow-request rule), 1% and 100% head sampling, and 100%
// with metric exemplars or with the audit log writing to io.Discard.
func BenchmarkEObs_Overhead(b *testing.B) {
	for _, c := range []struct {
		name      string
		sample    float64
		tailSlow  time.Duration
		exemplars bool
		audit     bool
	}{
		{name: "sampling=off"},
		{name: "sampling=tail-1in1000", sample: 0.001, tailSlow: time.Millisecond},
		{name: "sampling=1pct", sample: 0.01},
		{name: "sampling=100pct", sample: 1},
		{name: "sampling=100pct+exemplars", sample: 1, exemplars: true},
		{name: "sampling=100pct+audit", sample: 1, audit: true},
	} {
		b.Run(c.name, func(b *testing.B) {
			server := sim.NewThroughputServer(sim.ThroughputClients)
			server.Obs.Tracer.SetSampleRate(c.sample)
			if c.tailSlow > 0 {
				server.Obs.Tracer.SetTailSlow(c.tailSlow)
			}
			if c.exemplars {
				server.Obs.SetExemplars(true)
			}
			if c.audit {
				server.Obs.SetAudit(obs.NewAuditLog(io.Discard))
			}
			benchPipeline(b, server, false)
		})
	}
}

// BenchmarkESLO_Overhead measures the same pipeline with the privacy
// SLO engine off, on, and on with a canary capturing from the decision
// path (EXPERIMENTS.md E-slo). The workload advances logical time one
// second, one SLO ring bucket, per request, so every observation pays a
// bucket rotation; the clock=held pair holds each timestamp for 100
// requests, as production traffic shares a bucket, so rotation
// amortizes away.
func BenchmarkESLO_Overhead(b *testing.B) {
	for _, c := range []struct {
		name   string
		on     bool
		canary bool
		held   bool
	}{
		{name: "slo=off"},
		{name: "slo=on", on: true},
		{name: "slo=on+canary", on: true, canary: true},
		{name: "slo=off,clock=held", held: true},
		{name: "slo=on,clock=held", on: true, held: true},
	} {
		b.Run(c.name, func(b *testing.B) {
			server := sim.NewThroughputServer(sim.ThroughputClients)
			server.SLO.SetEnabled(c.on)
			if c.canary {
				store, ok := server.Store().(slo.AttackStore)
				if !ok {
					b.Fatal("server store does not expose the attack read")
				}
				server.SLO.AttachCanary(slo.NewCanary(slo.CanaryOptions{Store: store}))
			}
			benchPipeline(b, server, c.held)
		})
	}
}

// benchPipeline issues b.N E11 requests for client user 0 from one
// goroutine. With held, each timestamp repeats for 100 requests.
func benchPipeline(b *testing.B, server *ts.Server, held bool) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i
		if held {
			j = i / 100 * 100
		}
		sim.ThroughputRequest(server, 0, j)
	}
}

// BenchmarkE11_DeployAnalyze measures the deployment-area analyzer on a
// mid-size city.
func BenchmarkE11_DeployAnalyze(b *testing.B) {
	cfg := mobility.DefaultConfig()
	cfg.Users = 80
	cfg.Days = 3
	world := mobility.Generate(cfg)
	store := phl.NewStore()
	for _, ev := range world.Events {
		store.Record(ev.User, ev.Point)
	}
	idx := deploy.BuildIndex(store)
	in := deploy.Input{
		Store: store, Index: idx, Metric: geo.STMetric{TimeScale: 1},
		K: 5, Tolerance: generalize.Tolerance{MaxWidth: 1000, MaxHeight: 1000, MaxDuration: 900},
		SampleEvery: 200,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := deploy.Analyze(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12_Perturb measures the randomization defense per box.
func BenchmarkE12_Perturb(b *testing.B) {
	r := generalize.NewRandomizer(7)
	box := geo.STBox{
		Area: geo.Rect{MinX: 0, MinY: 0, MaxX: 1500, MaxY: 900},
		Time: geo.Interval{Start: 1000, End: 2200},
	}
	tol := generalize.Tolerance{MaxWidth: 4000, MaxHeight: 4000, MaxDuration: 3600}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Perturb(box, tol)
	}
}

// BenchmarkE13_GedikLiuEngine measures the online deferral engine per
// submitted request.
func BenchmarkE13_GedikLiuEngine(b *testing.B) {
	cfg := mobility.DefaultConfig()
	cfg.Users = 80
	cfg.Days = 2
	stream := mobility.Generate(cfg).Requests()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := baseline.NewGedikLiuEngine(5, 1500, 900)
		for _, ev := range stream {
			e.Submit(baseline.Request{User: ev.User, Point: ev.Point})
		}
		e.Flush()
	}
}

// BenchmarkMine measures LBQID derivation over a two-week city.
func BenchmarkMine(b *testing.B) {
	cfg := mobility.DefaultConfig()
	cfg.Users = 60
	cfg.Days = 14
	world := mobility.Generate(cfg)
	store := phl.NewStore()
	for _, ev := range world.Events {
		store.Record(ev.User, ev.Point)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mine.Mine(store, mine.Config{WeekdaysOnly: true})
	}
}

// BenchmarkHauntLinker measures profile building and pairwise queries.
func BenchmarkHauntLinker(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var reqs []*wire.Request
	for i := 0; i < 5000; i++ {
		reqs = append(reqs, &wire.Request{
			Pseudonym: wire.Pseudonym(fmt.Sprintf("p%d", i%50)),
			Context: geo.STBox{
				Area: geo.RectAround(geo.Point{X: rng.Float64() * 8000, Y: rng.Float64() * 8000}).Expand(200),
				Time: geo.IntervalAround(int64(rng.Intn(14 * 86400))),
			},
		})
	}
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			link.NewHaunt(reqs, 750, 7200, 2)
		}
	})
	b.Run("likelihood", func(b *testing.B) {
		h := link.NewHaunt(reqs, 750, 7200, 2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Likelihood(reqs[i%len(reqs)], reqs[(i*7+1)%len(reqs)])
		}
	})
}
