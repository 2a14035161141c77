package sim

import (
	"sort"

	"histanon/internal/generalize"
	"histanon/internal/geo"
	"histanon/internal/lbqid"
	"histanon/internal/metrics"
	"histanon/internal/mixzone"
	"histanon/internal/mobility"
	"histanon/internal/phl"
	"histanon/internal/sp"
	"histanon/internal/ts"
	"histanon/internal/wire"
)

// ScenarioConfig describes one end-to-end pipeline run.
type ScenarioConfig struct {
	// Mobility configures the synthetic city (zero value: a scaled-down
	// DefaultConfig suitable for experiments).
	Mobility mobility.Config
	// Policy is applied to every user.
	Policy ts.Policy
	// Tolerance constrains every service in the run.
	Tolerance generalize.Tolerance
	// TrackLBQIDs attaches the commute LBQID to every commuter agent
	// (3 weekdays × 2 weeks, the paper's Example 2).
	TrackLBQIDs bool
	// OnDemand enables on-demand mix zones during unlinking.
	OnDemand mixzone.OnDemand
	// StaticZones places static mix zones.
	StaticZones *mixzone.Registry
	// RandomizeSeed enables the §7 randomization defense in the TS.
	RandomizeSeed int64
	// WitnessSamples enables density-balanced boxes (E14 hardening).
	WitnessSamples int
}

// DefaultScenario returns a mid-size configuration used across the
// experiment suite.
func DefaultScenario() ScenarioConfig {
	mob := mobility.DefaultConfig()
	mob.Users = 120
	mob.Days = 14
	return ScenarioConfig{
		Mobility:    mob,
		Policy:      ts.Policy{K: 5},
		TrackLBQIDs: true,
		OnDemand: mixzone.OnDemand{
			Quiet:          600,
			Divergence:     mixzone.Divergence{MinAngle: 0.3},
			FallbackRadius: 800,
		},
	}
}

// ScenarioResult carries everything the experiments measure.
type ScenarioResult struct {
	World    *mobility.World
	Server   *ts.Server
	Provider *sp.Provider
	// Decisions are the per-request TS outcomes, aligned with Requests.
	Decisions []ts.Decision
	// Requests are the exact (pre-generalization) request events.
	Requests []mobility.Event
}

// Run executes the pipeline: every mobility event becomes either a
// location update or a service request to the trusted server, which
// forwards to a recording provider.
func Run(cfg ScenarioConfig) *ScenarioResult {
	if cfg.Mobility.Users == 0 {
		cfg.Mobility = DefaultScenario().Mobility
	}
	world := mobility.Generate(cfg.Mobility)
	provider := sp.NewProvider()
	services := map[string]ts.ServiceSpec{}
	for _, name := range []string{"navigation", "news", "weather", "poi-finder", "localized-news"} {
		services[name] = ts.ServiceSpec{Name: name, Tolerance: cfg.Tolerance}
	}
	server := ts.New(ts.Config{
		Services:       services,
		OnDemand:       cfg.OnDemand,
		StaticZones:    cfg.StaticZones,
		DefaultPolicy:  cfg.Policy,
		RandomizeSeed:  cfg.RandomizeSeed,
		WitnessSamples: cfg.WitnessSamples,
	}, provider)

	if cfg.TrackLBQIDs {
		for _, a := range world.Agents {
			if def, ok := world.CommuterLBQID(a, 3, 2); ok {
				q, err := lbqid.ParseOne(def)
				if err != nil {
					panic("sim: generated LBQID failed to parse: " + err.Error())
				}
				if err := server.AddLBQID(a.User, q); err != nil {
					panic("sim: " + err.Error())
				}
			}
		}
	}

	res := &ScenarioResult{World: world, Server: server, Provider: provider}
	for _, ev := range world.Events {
		if ev.Request {
			dec := server.Request(ev.User, ev.Point, ev.Service, nil)
			res.Decisions = append(res.Decisions, dec)
			res.Requests = append(res.Requests, ev)
		} else {
			server.RecordLocation(ev.User, ev.Point)
		}
	}
	return res
}

// GeneralizedStats summarizes the area (m²) and interval (s) of the
// generalized, forwarded requests' contexts, in request order.
func (r *ScenarioResult) GeneralizedStats() (area, interval *metrics.Summary) {
	area, interval = &metrics.Summary{}, &metrics.Summary{}
	for _, d := range r.Decisions {
		if d.Forwarded && d.Generalized {
			area.Add(d.Request.Context.Area.Area())
			interval.Add(float64(d.Request.Context.Time.Duration()))
		}
	}
	return area, interval
}

// ExposedSeries returns, in user order, the series Theorem 1 speaks
// about for each user whose LBQID was fully exposed: the contexts of the
// generalized (LBQID matching) requests forwarded under the exposing
// pseudonym. Background requests outside any LBQID are excluded — the
// paper's framework treats location as identifying only through the
// declared quasi-identifiers (§4), so exact contexts outside them are
// out of the theorem's scope.
func (r *ScenarioResult) ExposedSeries() []sp.Series {
	exposePseudo := map[phl.UserID]wire.Pseudonym{}
	for i, d := range r.Decisions {
		if d.QIDExposed && d.Request != nil {
			exposePseudo[r.Requests[i].User] = d.Request.Pseudonym
		}
	}
	boxes := map[phl.UserID][]geo.STBox{}
	for i, d := range r.Decisions {
		if !d.Generalized || d.Request == nil {
			continue
		}
		u := r.Requests[i].User
		if ps, ok := exposePseudo[u]; ok && d.Request.Pseudonym == ps {
			boxes[u] = append(boxes[u], d.Request.Context)
		}
	}
	series := make([]sp.Series, 0, len(boxes))
	for _, u := range sortedUsers(boxes) {
		series = append(series, sp.Series{Issuer: u, Boxes: boxes[u]})
	}
	return series
}

// AttackExposed runs the §5 attack (sp.Score) on every exposed series,
// in user order, against the server's own store.
func (r *ScenarioResult) AttackExposed() sp.Report {
	return sp.Score(r.Server.Store(), r.ExposedSeries())
}

// sortedUsers returns m's users in increasing order.
func sortedUsers[V any](m map[phl.UserID]V) []phl.UserID {
	users := make([]phl.UserID, 0, len(m))
	for u := range m {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	return users
}

// FailureRate returns hk_failures / generalized.
func (r *ScenarioResult) FailureRate() float64 {
	return metrics.Ratio(r.Server.Counters.Get("hk_failures"), r.Server.Counters.Get("generalized"))
}

// UnlinkingsPerUserDay returns pseudonym rotations normalized by user
// days.
func (r *ScenarioResult) UnlinkingsPerUserDay() float64 {
	days := int64(r.World.Config.Users) * int64(r.World.Config.Days)
	return metrics.Ratio(r.Server.Counters.Get("unlinkings"), days)
}

// tightTolerance is a deliberately service-hostile constraint used by
// tests and experiments to force generalization failures.
func tightTolerance() generalize.Tolerance {
	return generalize.Tolerance{MaxWidth: 50, MaxHeight: 50, MaxDuration: 30}
}
