// Command perfbench is the end-to-end benchmark of the trusted server.
// It drives a real httpapi listener on loopback — the server built as
// lbserve builds it by default, plus a navigation service and an
// in-process SP that answers into per-user inboxes — with traffic
// generated from mobility streams for a seed, checks every decision
// and answer, and prints one JSON result line. See README.md.
//
//	bash perfbench/run.sh --workload requests --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"histanon/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	opt := &options{}
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	fl.StringVar(&opt.workload, "workload", "requests", "workload: ingest, requests or durable")
	fl.Int64Var(&opt.seed, "seed", 1, "seed every input derives from")
	fl.Float64Var(&opt.seconds, "seconds", 10, "measured seconds (summed over rounds)")
	traceFlag := fl.Int("trace", 0, "1 = per-layer metrics from a traced run, 0 = end-to-end metrics")
	fl.IntVar(&opt.agents, "agents", 0, "override the workload's population (0 = the workload's own)")
	fl.StringVar(&opt.workdir, "workdir", ".bench_build", "directory for the durable workload's storage")
	fl.StringVar(&opt.inject, "inject", "", "plant a fault the checks must catch: shrink or withhold (self-test)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	opt.trace = *traceFlag == 1
	wl, ok := workloads[opt.workload]
	if !ok || opt.seconds <= 0 || (opt.inject != "" && opt.inject != "shrink" && opt.inject != "withhold") {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %g, inject %q)\n",
			opt.workload, opt.seconds, opt.inject)
		return 2
	}
	agents := wl.agents
	if opt.agents > 0 {
		agents = opt.agents
	}
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	t0 := time.Now()
	in, err := generate(wl, opt.seed, agents)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: generating inputs: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "perfbench: %s seed %d: %d agents, %d preload frames, %d measured frames/calls, %d service calls, generated in %.1fs\n",
		wl.name, opt.seed, agents, in.preloadN, in.measuredN, in.calls, time.Since(t0).Seconds())

	var rounds []roundResult
	var measured float64
	for {
		traced := opt.trace && len(rounds)%2 == 1
		res, err := runRound(in, opt, traced)
		rounds = append(rounds, res)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: round %d: %v\n", len(rounds), err)
			printResult(stdout, result{Correct: false, Attempted: max(attempted(rounds), 1), Failed: failed(rounds), Metrics: map[string]metric{}})
			return 1
		}
		measured += res.measuredS
		fmt.Fprintf(stderr, "perfbench: round %d (traced=%v): setup %.2fs, measured %.2fs, %d updates, %d requests, %d forwarded, failures %v\n",
			len(rounds), traced, res.setupS, res.measuredS, res.updates, res.requests, res.forwarded, res.failures)
		if len(rounds) >= minRounds(opt) && (measured >= opt.seconds || time.Since(t0) > 120*time.Second) {
			break
		}
	}

	var metrics map[string]metric
	if opt.trace {
		metrics = layerMetrics(in, rounds)
	} else {
		metrics = endToEndMetrics(rounds)
	}
	prov := provenance(opt, in, rounds)
	line, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Fprintln(stdout, string(line))
	printResult(stdout, result{Correct: true, Attempted: attempted(rounds), Failed: failed(rounds), Metrics: metrics})
	return 0
}

func printResult(w io.Writer, r result) {
	line, _ := json.Marshal(r)
	fmt.Fprintln(w, string(line))
}

func attempted(rs []roundResult) (n int) {
	for _, r := range rs {
		n += r.attempted
	}
	return n
}

func failed(rs []roundResult) (n int) {
	for _, r := range rs {
		n += r.failed
	}
	return n
}

// failures counts the run's failed operations by reason.
func failures(rs []roundResult) map[string]int {
	out := map[string]int{}
	for _, r := range rs {
		for k, v := range r.failures {
			out[k] += v
		}
	}
	return out
}

func filter(rs []roundResult, traced bool) []roundResult {
	var out []roundResult
	for _, r := range rs {
		if r.traced == traced {
			out = append(out, r)
		}
	}
	return out
}

// perRound is the median over rounds of a per-round figure.
func perRound(rs []roundResult, f func(r roundResult) float64) float64 {
	vs := make([]float64, len(rs))
	for i, r := range rs {
		vs[i] = f(r)
	}
	return median(vs)
}

// throughput is the median over rounds of updates acknowledged per
// measured second.
func throughput(rs []roundResult) float64 {
	return perRound(rs, func(r roundResult) float64 { return ratio(float64(r.updates), r.measuredS) })
}

func batchMs(r roundResult) []float64   { return r.batchMs }
func requestMs(r roundResult) []float64 { return r.requestMs }
func answerMs(r roundResult) []float64  { return r.answerMs }

// pct is the median over groups of rounds of a percentile of their
// samples (groupQuantiles).
func pct(rs []roundResult, samples func(roundResult) []float64, q float64) float64 {
	return median(groupQuantiles(rs, samples, q))
}

// endToEndMetrics are the user-visible figures over the untraced
// rounds. Each is a median over the run, so a stretch slowed by the
// host does not move it: throughput, set-up time and heap over rounds,
// a percentile over groups of rounds. The p99 latencies are not here:
// on a shared two-core host they spread past any bound a regression
// check can use, so the traced run reports them, ungated.
func endToEndMetrics(all []roundResult) map[string]metric {
	rs := filter(all, false)
	var fwd, reqs, gen, hk float64
	var areas []float64
	for _, r := range rs {
		fwd += float64(r.forwarded)
		reqs += float64(r.requests)
		gen += float64(r.generalized)
		hk += float64(r.hkOK)
		areas = append(areas, r.areaKm2...)
	}
	return map[string]metric{
		"setup_s":           {perRound(rs, func(r roundResult) float64 { return r.setupS }), "s"},
		"updates_per_s":     {throughput(rs), "1/s"},
		"batch_p50_ms":      {pct(rs, batchMs, 0.5), "ms"},
		"request_p50_ms":    {pct(rs, requestMs, 0.5), "ms"},
		"forwarded_frac":    {ratio(fwd, reqs), "frac"},
		"hk_ok_frac":        {ratio(hk, gen), "frac"},
		"ctx_area_km2_p50":  {median(areas), "km2"},
		"heap_per_sample_b": {perRound(rs, func(r roundResult) float64 { return r.heapPerSample }), "B"},
	}
}

// layerMetrics are the traced rounds' per-layer figures: times pooled
// over the traced rounds, counts per traced round. The end-to-end p99
// latencies come from the run's untraced rounds.
func layerMetrics(in *inputs, all []roundResult) map[string]metric {
	us, ts := filter(all, false), filter(all, true)
	n := float64(len(ts))
	var record, history, insert, knn, spAnswer timerSnap
	var knnNs, serveNs, queueNs, inboxNs, clientNs, lateNs []float64
	var stageN [obs.NumStages]int64
	var stageS [obs.NumStages]float64
	var serveTotal, attributed, shed, retries, dropped, samples float64
	var decode, sloNs []float64
	counters := map[string]float64{}
	storage := map[string]float64{}
	add := func(a *timerSnap, b timerSnap) { a.n += b.n; a.ns += b.ns }
	for _, r := range ts {
		l := r.layer
		add(&record, l.record)
		add(&history, l.history)
		add(&insert, l.insert)
		add(&knn, l.knn)
		add(&spAnswer, l.spAnswer)
		knnNs = append(knnNs, l.knnNs...)
		serveNs = append(serveNs, l.serveNs...)
		queueNs = append(queueNs, l.queueWaitNs...)
		inboxNs = append(inboxNs, l.inboxNs...)
		clientNs = append(clientNs, l.clientNs...)
		lateNs = append(lateNs, r.lateMs...)
		for s := range stageN {
			stageN[s] += l.stageN[s]
			stageS[s] += l.stageS[s]
		}
		serveTotal += l.serveTotalNs
		shed += float64(l.shed)
		retries += float64(l.retries)
		dropped += float64(l.dropped)
		samples += float64(l.samples)
		decode = append(decode, l.decodeNsPerFrame)
		sloNs = append(sloNs, l.sloNs)
		for k, v := range l.counters {
			counters[k] += float64(v)
		}
		if st := l.storage; st != nil {
			storage["cold_hits"] += float64(st.ColdHits)
			storage["cold_misses"] += float64(st.ColdMisses)
			storage["demoted_samples"] += float64(st.DemotedSamples)
			storage["wal_bytes"] += float64(st.WALBytes)
			storage["hot_samples"] += float64(st.HotSamples)
		}
		// The layer budget: every timed layer's time in this round.
		attributed += float64(l.record.ns + l.history.ns + l.insert.ns + l.knn.ns)
		for _, s := range []obs.Stage{obs.StageMatch, obs.StageBox, obs.StageTolerance, obs.StageUnlink, obs.StageForward} {
			attributed += l.stageS[s] * 1e9
		}
		attributed += l.decodeNsPerFrame*float64(l.framesServed) + l.sloNs*float64(r.requests)
	}
	stageMean := func(s obs.Stage) float64 { return ratio(stageS[s]*1e9, float64(stageN[s])) }
	overhead := 1 - ratio(throughput(ts), throughput(us)) // throughput lost to tracing
	storeRecord, storeKNN, storeHistory := 0.0, 0.0, 0.0
	if in.wl.durable {
		// The durable store sits behind the same seams the phl and
		// stindex figures are taken at.
		storeRecord, storeKNN, storeHistory = record.mean(), knn.mean(), history.mean()
	}
	return map[string]metric{
		"batch_p99_ms":                 {pct(us, batchMs, 0.99), "ms"},
		"request_p99_ms":               {pct(us, requestMs, 0.99), "ms"},
		"answer_p99_ms":                {pct(us, answerMs, 0.99), "ms"},
		"httpapi.serve_us_p50":         {quantile(serveNs, 0.5) / 1e3, "us"},
		"httpapi.serve_us_p99":         {quantile(serveNs, 0.99) / 1e3, "us"},
		"httpapi.shed":                 {shed / n, "count"},
		"net.client_us_p50":            {quantile(clientNs, 0.5) / 1e3, "us"},
		"wire.decode_ns_per_frame":     {median(decode), "ns"},
		"phl.record_ns_mean":           {record.mean(), "ns"},
		"phl.record_calls":             {float64(record.n) / n, "count"},
		"phl.history_ns_mean":          {history.mean(), "ns"},
		"phl.history_calls":            {float64(history.n) / n, "count"},
		"phl.samples":                  {samples / n, "count"},
		"stindex.insert_ns_mean":       {insert.mean(), "ns"},
		"stindex.insert_calls":         {float64(insert.n) / n, "count"},
		"stindex.knn_ns_mean":          {knn.mean(), "ns"},
		"stindex.knn_ns_p99":           {quantile(knnNs, 0.99), "ns"},
		"stindex.knn_calls":            {float64(knn.n) / n, "count"},
		"ts.lbqid_match_ns_mean":       {stageMean(obs.StageMatch), "ns"},
		"ts.box_construct_ns_mean":     {stageMean(obs.StageBox), "ns"},
		"ts.tolerance_check_ns_mean":   {stageMean(obs.StageTolerance), "ns"},
		"ts.unlink_ns_mean":            {stageMean(obs.StageUnlink), "ns"},
		"ts.forward_ns_mean":           {stageMean(obs.StageForward), "ns"},
		"ts.generalized":               {counters["generalized"] / n, "count"},
		"ts.hk_failures":               {counters["hk_failures"] / n, "count"},
		"ts.unlinkings":                {counters["unlinkings"] / n, "count"},
		"ts.at_risk":                   {counters["at_risk"] / n, "count"},
		"ts.suppressed":                {counters["suppressed"] / n, "count"},
		"ts.degraded":                  {counters["degraded"] / n, "count"},
		"resilience.queue_wait_us_p99": {quantile(queueNs, 0.99) / 1e3, "us"},
		"resilience.retries":           {retries / n, "count"},
		"resilience.dropped":           {dropped / n, "count"},
		"sp.answer_ns_mean":            {spAnswer.mean(), "ns"},
		"ts.inbox_us_p99":              {quantile(inboxNs, 0.99) / 1e3, "us"},
		"slo.observe_ns_mean":          {median(sloNs), "ns"},
		"storage.record_ns_mean":       {storeRecord, "ns"},
		"storage.knn_ns_mean":          {storeKNN, "ns"},
		"storage.history_ns_mean":      {storeHistory, "ns"},
		"storage.cold_hits":            {storage["cold_hits"] / n, "count"},
		"storage.cold_misses":          {storage["cold_misses"] / n, "count"},
		"storage.demoted_samples":      {storage["demoted_samples"] / n, "count"},
		"storage.wal_bytes":            {storage["wal_bytes"] / n, "B"},
		"storage.hot_samples":          {storage["hot_samples"] / n, "count"},
		"unattributed_frac":            {1 - ratio(attributed, serveTotal), "frac"},
		"trace_overhead_frac":          {overhead, "frac"},
		"loadgen.late_p99_ms":          {quantile(lateNs, 0.99), "ms"},
	}
}

// provenance records what produced the numbers: machine, toolchain,
// source, inputs, and the sample counts behind every percentile.
func provenance(opt *options, in *inputs, rs []roundResult) map[string]any {
	// Per sample set: the fewest samples any round's percentile rests
	// on, and the total over rounds.
	counts := map[string][2]int{}
	note := func(name string, n int) {
		c, seen := counts[name]
		if !seen || n < c[0] {
			c[0] = n
		}
		c[1] += n
		counts[name] = c
	}
	for _, r := range rs {
		if !r.traced {
			note("batch_ms", len(r.batchMs))
			note("request_ms", len(r.requestMs))
			note("answer_ms", len(r.answerMs))
			note("ctx_area_km2", len(r.areaKm2))
		} else {
			note("serve_ns", len(r.layer.serveNs))
			note("knn_ns", len(r.layer.knnNs))
			note("queue_wait_ns", len(r.layer.queueWaitNs))
			note("inbox_ns", len(r.layer.inboxNs))
			note("client_ns", len(r.layer.clientNs))
		}
	}
	p := map[string]any{
		"workload":          in.wl.name,
		"scenario":          in.wl.scenario,
		"seed":              opt.seed,
		"seconds":           opt.seconds,
		"trace":             opt.trace,
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"nproc":             runtime.NumCPU(),
		"go":                runtime.Version(),
		"commit":            commit(),
		"agents":            in.agents,
		"connections":       nConns,
		"rounds":            len(rs),
		"traced_rounds":     len(filter(rs, true)),
		"preload_frames":    in.preloadN,
		"measured_per_pass": in.measuredN,
		"failed_frac":       ratio(float64(failed(rs)), float64(attempted(rs))),
		"failures":          failures(rs),
		"samples_min_total": counts,
	}
	if us := filter(rs, false); len(us) > 0 {
		// The values each end-to-end median is taken over.
		var rates, setups []float64
		for _, r := range us {
			rates = append(rates, ratio(float64(r.updates), r.measuredS))
			setups = append(setups, r.setupS)
		}
		p["round_updates_per_s"] = rates
		p["round_setup_s"] = setups
	}
	return p
}

// commit identifies the source measured: the VCS revision when the
// build recorded one, else a hash of the Go sources in the checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	var files []string
	for _, root := range []string{"go.mod", "internal", "cmd", "perfbench"} {
		_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
				files = append(files, path)
			}
			return nil
		})
	}
	if len(files) == 0 {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}
