// Objective specs, the multi-window burn-rate state machine, and metric
// registration. The alerting model is the SRE burn-rate scheme: an
// objective grants an error budget (e.g. "at most 0.1% of decisions may
// fall below the requested k"), the burn rate is how many times faster
// than budget the deployment is spending it, and a state escalates only
// when BOTH a fast and a slow window agree — the fast window for
// reaction time, the slow one to reject blips.

package slo

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"histanon/internal/metrics"
	"histanon/internal/obs"
)

// Signals an objective can bound: the fraction of decisions that fell
// below the requested k, were suppressed, or were degraded (fail-closed
// admission refusals).
const (
	SignalBelowK      = "below_k"
	SignalSuppression = "suppression"
	SignalDegraded    = "degraded"
)

// Burn-rate state of one objective.
type State int

const (
	StateOK State = iota
	StateWarning
	StatePage
)

// String returns "ok", "warning" or "page".
func (s State) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateWarning:
		return "warning"
	case StatePage:
		return "page"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Objective is one privacy objective: a signal, its error budget, and
// the burn multiples that trigger each alert tier.
type Objective struct {
	// Signal is SignalBelowK, SignalSuppression or SignalDegraded.
	Signal string
	// Budget is the allowed bad-decision fraction (0 < Budget < 1); a
	// burn rate of 1.0 means the deployment spends exactly its budget.
	Budget float64
	// WarnBurn pages nobody but flags the objective when both the mid
	// and long windows burn at ≥ this multiple (default 2).
	WarnBurn float64
	// PageBurn escalates to page when both the short and mid windows
	// burn at ≥ this multiple (default 10). Must be ≥ WarnBurn.
	PageBurn float64
	// MinDecisions is the minimum decision count a window needs before
	// its burn rate counts as evidence (default 10): an empty or
	// near-empty window neither raises nor sustains an alert.
	MinDecisions int64
}

// DefaultObjectives returns the single default objective:
// below_k < 0.1% of decisions, warn at 2x burn, page at 10x.
func DefaultObjectives() []Objective {
	return []Objective{{
		Signal:       SignalBelowK,
		Budget:       0.001,
		WarnBurn:     2,
		PageBurn:     10,
		MinDecisions: 10,
	}}
}

// Spec renders the objective back into the spec syntax ParseObjectives
// accepts.
func (o Objective) Spec() string {
	return fmt.Sprintf("%s<%s%%;warn=%s;page=%s", o.Signal,
		strconv.FormatFloat(o.Budget*100, 'g', -1, 64),
		strconv.FormatFloat(o.WarnBurn, 'g', -1, 64),
		strconv.FormatFloat(o.PageBurn, 'g', -1, 64))
}

// ratio extracts the objective's signal from a window snapshot.
func (o Objective) ratio(s WindowSnapshot) float64 {
	switch o.Signal {
	case SignalSuppression:
		return s.SuppressionRatio()
	case SignalDegraded:
		return s.DegradedRatio()
	default:
		return s.BelowKRatio()
	}
}

// ParseObjectives parses a comma-separated objective spec list, e.g.
//
//	below_k<0.1%
//	below_k<0.1%;warn=2;page=10,suppression<5%
//
// Each item is signal '<' budget '%' with optional ';warn=F', ';page=F'
// and ';min=N' options. Budgets must be in (0, 100) percent; burn
// multiples must be ≥ 1 with page ≥ warn; min must be ≥ 0.
func ParseObjectives(spec string) ([]Objective, error) {
	var out []Objective
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		o, err := parseObjective(item)
		if err != nil {
			return nil, err
		}
		for _, prev := range out {
			if prev.Signal == o.Signal {
				return nil, fmt.Errorf("slo: duplicate objective for signal %q", o.Signal)
			}
		}
		out = append(out, o)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("slo: empty objective spec")
	}
	return out, nil
}

func parseObjective(item string) (Objective, error) {
	o := Objective{WarnBurn: 2, PageBurn: 10, MinDecisions: 10}
	parts := strings.Split(item, ";")
	head := strings.TrimSpace(parts[0])
	sig, budget, ok := strings.Cut(head, "<")
	if !ok {
		return o, fmt.Errorf("slo: objective %q: want signal<budget%%", item)
	}
	sig = strings.TrimSpace(sig)
	switch sig {
	case SignalBelowK, SignalSuppression, SignalDegraded:
		o.Signal = sig
	default:
		return o, fmt.Errorf("slo: objective %q: unknown signal %q (want %s, %s or %s)",
			item, sig, SignalBelowK, SignalSuppression, SignalDegraded)
	}
	budget = strings.TrimSpace(budget)
	pct, ok := strings.CutSuffix(budget, "%")
	if !ok {
		return o, fmt.Errorf("slo: objective %q: budget %q must end in %%", item, budget)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(pct), 64)
	if err != nil {
		return o, fmt.Errorf("slo: objective %q: bad budget: %v", item, err)
	}
	if !(v > 0 && v < 100) {
		return o, fmt.Errorf("slo: objective %q: budget must be in (0, 100) percent, got %g", item, v)
	}
	o.Budget = v / 100
	// A subnormal percentage can pass v > 0 yet underflow the division:
	// a zero budget would make every burn rate +Inf.
	if o.Budget <= 0 {
		return o, fmt.Errorf("slo: objective %q: budget %g%% is too small", item, v)
	}
	for _, opt := range parts[1:] {
		opt = strings.TrimSpace(opt)
		if opt == "" {
			continue
		}
		key, val, ok := strings.Cut(opt, "=")
		if !ok {
			return o, fmt.Errorf("slo: objective %q: option %q: want key=value", item, opt)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		switch key {
		case "warn", "page":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return o, fmt.Errorf("slo: objective %q: bad %s: %v", item, key, err)
			}
			if f < 1 || f > 1e6 {
				return o, fmt.Errorf("slo: objective %q: %s must be in [1, 1e6], got %g", item, key, f)
			}
			if key == "warn" {
				o.WarnBurn = f
			} else {
				o.PageBurn = f
			}
		case "min":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return o, fmt.Errorf("slo: objective %q: bad min: %v", item, err)
			}
			if n < 0 {
				return o, fmt.Errorf("slo: objective %q: min must be ≥ 0, got %d", item, n)
			}
			o.MinDecisions = n
		default:
			return o, fmt.Errorf("slo: objective %q: unknown option %q", item, key)
		}
	}
	if o.PageBurn < o.WarnBurn {
		return o, fmt.Errorf("slo: objective %q: page burn %g below warn burn %g", item, o.PageBurn, o.WarnBurn)
	}
	return o, nil
}

// ParseWindows parses a comma-separated window list, e.g. "1m,10m,1h".
// Windows must be whole seconds, positive, strictly increasing, and at
// most 24h. Each token becomes the window's name.
func ParseWindows(spec string) ([]WindowSpec, error) {
	var out []WindowSpec
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		d, err := time.ParseDuration(item)
		if err != nil {
			return nil, fmt.Errorf("slo: window %q: %v", item, err)
		}
		if d <= 0 || d%time.Second != 0 {
			return nil, fmt.Errorf("slo: window %q must be a positive whole number of seconds", item)
		}
		if d > 24*time.Hour {
			return nil, fmt.Errorf("slo: window %q exceeds the 24h maximum", item)
		}
		sec := int64(d / time.Second)
		if len(out) > 0 && sec <= out[len(out)-1].Seconds {
			return nil, fmt.Errorf("slo: windows must be strictly increasing, %q does not extend %q",
				item, out[len(out)-1].Name)
		}
		out = append(out, WindowSpec{Name: item, Seconds: sec})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("slo: empty window spec")
	}
	return out, nil
}

// WindowBurn is one window's view of one objective at evaluation time.
type WindowBurn struct {
	Window    string
	Decisions int64
	Ratio     float64
	Burn      float64
}

// ObjectiveStatus is the evaluated state of one objective.
type ObjectiveStatus struct {
	Objective Objective
	State     State
	// Since is the logical time the objective entered its current state.
	Since int64
	Burns []WindowBurn
}

// EvalResult is one full evaluation of every objective.
type EvalResult struct {
	// T is the logical evaluation time.
	T          int64
	Objectives []ObjectiveStatus
}

// horizonWindows picks the short/mid/long evaluation horizons from the
// configured windows: first, middle, last (coinciding when fewer than
// three windows are configured).
func (e *Engine) horizonWindows() (short, mid, long WindowSpec) {
	n := len(e.windows)
	return e.windows[0], e.windows[n/2], e.windows[n-1]
}

// Evaluate runs the burn-rate state machine against the windows as of
// logical time now, emitting a KindSLO audit record and a transition
// count for every state change, and returns the evaluation. The hot
// path calls it via maybeEvaluate (bucket-edge triggered,
// wall-throttled); tests and the /v1/slo handler call it directly for a
// fresh view.
func (e *Engine) Evaluate(now int64) EvalResult {
	e.evalMu.Lock()
	defer e.evalMu.Unlock()

	short, mid, long := e.horizonWindows()
	snaps := make(map[string]WindowSnapshot, len(e.windows))
	for _, w := range e.windows {
		snaps[w.Name] = e.snapshotWindow(w, now)
	}

	res := EvalResult{T: now, Objectives: make([]ObjectiveStatus, len(e.objectives))}
	for i, o := range e.objectives {
		burns := make([]WindowBurn, len(e.windows))
		burnOf := make(map[string]WindowBurn, len(e.windows))
		for j, w := range e.windows {
			s := snaps[w.Name]
			b := WindowBurn{Window: w.Name, Decisions: s.Decisions, Ratio: o.ratio(s)}
			b.Burn = b.Ratio / o.Budget
			burns[j] = b
			burnOf[w.Name] = b
		}
		// A window is evidence only with enough decisions in it; an
		// under-filled window reads as burn 0 (no evidence of burn) so
		// idle deployments neither page nor stick in a stale state.
		evidence := func(w WindowSpec) float64 {
			b := burnOf[w.Name]
			if b.Decisions < o.MinDecisions {
				return 0
			}
			return b.Burn
		}
		next := StateOK
		switch {
		case evidence(short) >= o.PageBurn && evidence(mid) >= o.PageBurn:
			next = StatePage
		case evidence(mid) >= o.WarnBurn && evidence(long) >= o.WarnBurn:
			next = StateWarning
		}
		prev := e.states[i]
		if next != prev {
			e.states[i] = next
			e.since[i] = now
			e.transitions.Inc(o.Signal, next.String())
			if fn := e.audit.Load(); fn != nil {
				(*fn)(obs.Event{
					T:         now,
					Kind:      obs.KindSLO,
					Objective: o.Signal,
					SLOState:  next.String(),
					SLOFrom:   prev.String(),
					BurnRate:  burnOf[short.Name].Burn,
				})
			}
		}
		res.Objectives[i] = ObjectiveStatus{
			Objective: o,
			State:     e.states[i],
			Since:     e.since[i],
			Burns:     burns,
		}
	}
	return res
}

// State returns the current burn-rate state of the objective bounding
// signal, and ok=false when no such objective is configured.
func (e *Engine) State(signal string) (State, bool) {
	e.evalMu.Lock()
	defer e.evalMu.Unlock()
	for i, o := range e.objectives {
		if o.Signal == signal {
			return e.states[i], true
		}
	}
	return StateOK, false
}

// WorstState returns the most severe state across all objectives.
func (e *Engine) WorstState() State {
	e.evalMu.Lock()
	defer e.evalMu.Unlock()
	worst := StateOK
	for _, s := range e.states {
		if s > worst {
			worst = s
		}
	}
	return worst
}

// Transitions returns the state-transition counter family (labels:
// objective, to), for tests and exposition.
func (e *Engine) Transitions() *metrics.CounterVec { return e.transitions }

// RegisterMetrics registers every histanon_slo_* family on r. Gauges
// read live window aggregates at scrape time; a disabled engine exposes
// zeros. Canary families are registered by Canary.RegisterMetrics.
func (e *Engine) RegisterMetrics(r *metrics.Registry) {
	r.RegisterCounterFunc(obs.MetricSLODecisions,
		"Decisions observed by the privacy-SLO engine.",
		nil, e.DecisionsTotal)
	r.RegisterCounterFunc(obs.MetricSLOBelowK,
		"Decisions whose achieved k fell below the requested k.",
		nil, e.BelowKTotal)
	r.RegisterCounterFunc(obs.MetricSLODroppedLate,
		"Decisions too old for the SLO window ring, dropped unaggregated.",
		nil, e.DroppedLate)
	for _, w := range e.windows {
		w := w
		snap := func() WindowSnapshot { return e.snapshotWindow(w, e.maxT.Load()) }
		r.RegisterGaugeFunc(obs.MetricSLOBelowKRatio,
			"Fraction of window decisions below the requested k.",
			metrics.Labels{"window": w.Name},
			func() float64 { return snap().BelowKRatio() })
		r.RegisterGaugeFunc(obs.MetricSLOSuppressionRatio,
			"Fraction of window decisions suppressed.",
			metrics.Labels{"window": w.Name},
			func() float64 { return snap().SuppressionRatio() })
		r.RegisterGaugeFunc(obs.MetricSLODegradedRatio,
			"Fraction of window decisions degraded fail-closed.",
			metrics.Labels{"window": w.Name},
			func() float64 { return snap().DegradedRatio() })
		for _, q := range []struct {
			name string
			q    float64
		}{{"p5", 0.05}, {"p50", 0.50}} {
			q := q
			r.RegisterGaugeFunc(obs.MetricSLOAchievedKQuantile,
				"Achieved-k quantile over the window's generalized decisions.",
				metrics.Labels{"window": w.Name, "quantile": q.name},
				func() float64 { return snap().KQuantile(q.q) })
		}
	}
	for i, o := range e.objectives {
		i, o := i, o
		for _, w := range e.windows {
			w := w
			r.RegisterGaugeFunc(obs.MetricSLOBurnRate,
				"Objective burn rate per window (observed ratio over budget).",
				metrics.Labels{"objective": o.Signal, "window": w.Name},
				func() float64 {
					s := e.snapshotWindow(w, e.maxT.Load())
					return o.ratio(s) / o.Budget
				})
		}
		r.RegisterGaugeFunc(obs.MetricSLOState,
			"Objective burn-rate state (0 ok, 1 warning, 2 page).",
			metrics.Labels{"objective": o.Signal},
			func() float64 {
				e.evalMu.Lock()
				defer e.evalMu.Unlock()
				return float64(e.states[i])
			})
	}
	r.RegisterCounterVec(obs.MetricSLOTransitions,
		"Burn-rate state transitions by objective and new state.",
		nil, e.transitions)
	// Canary families read through the engine's canary pointer at scrape
	// time, so the exposition surface does not depend on whether (or
	// when) a deployment wires a canary: unwired reads as zero (age -1).
	lastOr := func(f func(CanaryResult) float64, none float64) func() float64 {
		return func() float64 {
			if c := e.canary.Load(); c != nil {
				if res, ok := c.Last(); ok {
					return f(res)
				}
			}
			return none
		}
	}
	r.RegisterGaugeFunc(obs.MetricSLOCanaryLinkProb,
		"Mean probability the canary's LT-consistency attack assigns to the correct user.",
		nil, lastOr(func(r CanaryResult) float64 { return r.LinkProbability }, 0))
	r.RegisterGaugeFunc(obs.MetricSLOCanaryReident,
		"Fraction of attacked pseudonym series fully re-identified by the canary.",
		nil, lastOr(func(r CanaryResult) float64 { return r.ReidentifiedRatio() }, 0))
	r.RegisterGaugeFunc(obs.MetricSLOCanaryAnonSet,
		"Mean LT-consistent anonymity-set size over attacked series.",
		nil, lastOr(func(r CanaryResult) float64 { return r.AnonSetMean }, 0))
	r.RegisterCounterFunc(obs.MetricSLOCanaryProbes,
		"Completed canary probes.", nil, func() int64 {
			if c := e.canary.Load(); c != nil {
				return c.Probes()
			}
			return 0
		})
	r.RegisterCounterFunc(obs.MetricSLOCanarySkipped,
		"Canary probes skipped (admission pressure, rate limit, or empty ring).",
		nil, func() int64 {
			if c := e.canary.Load(); c != nil {
				p, rl, em := c.Skips()
				return p + rl + em
			}
			return 0
		})
	r.RegisterGaugeFunc(obs.MetricSLOCanaryAge,
		"Wall seconds since the last successful canary probe (-1 before the first).",
		nil, func() float64 {
			if c := e.canary.Load(); c != nil {
				return c.AgeSeconds()
			}
			return -1
		})
}
