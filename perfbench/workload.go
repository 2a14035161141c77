package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"histanon/internal/geo"
	"histanon/internal/httpapi"
	"histanon/internal/mobility"
	"histanon/internal/tgran"
	"histanon/internal/wire"
)

// nConns is the number of client connections: one per core of the
// two-core machine the benchmark was sized on. Connection c owns the
// users with id%nConns == c, so every user's events travel in order on
// one connection and per-user decisions repeat from run to run.
const nConns = 2

// batchFrames is the number of inner frames per POST /v1/batch.
const batchFrames = 512

// workload names one traffic mix. Sizes are for the full benchmark;
// scale shrinks them for the self-test.
type workload struct {
	name     string
	scenario string // mobility scenario registry name
	agents   int
	days     int
	// preloadDay1 preloads the first simulated day and measures the
	// rest (durable); otherwise requests preloads every location event
	// and ingest preloads nothing.
	preloadDay1 bool
	// twoElement registers the two-element commute LBQID instead of
	// the four-element one.
	twoElement bool
	durable    bool
	// probe is how many of the stream's requests ingest sends after
	// each measured pass (closed loop, JSON), so request latency and
	// the decision metrics exist on a workload whose measured phase
	// carries none.
	probe int
}

var workloads = map[string]workload{
	"ingest":   {name: "ingest", scenario: "rush-hour", agents: 10000, days: 4, probe: 2000},
	"requests": {name: "requests", scenario: "rush-hour", agents: 10000, days: 2},
	// durable sends the federation scenario's second day, locations and
	// requests interleaved, to a tiered store at 4,000 agents: at 10⁴
	// its 1024-entry cold-run cache thrashes so hard that one pass takes
	// about 30 s, more than a run can spend.
	"durable": {name: "durable", scenario: "federation", agents: 4000, days: 2, preloadDay1: true, twoElement: true, durable: true},
}

// call is one service request of the stream: who, where, when, what.
type call struct {
	user    int64
	pt      geo.STPoint
	service string
}

// batch is one pre-encoded POST /v1/batch body and the service calls
// it carries, in frame order.
type batch struct {
	body   []byte
	frames int
	calls  []call
}

// jsonCall is one pre-encoded POST /v1/request body.
type jsonCall struct {
	call
	body []byte
}

// connInputs is everything one connection sends.
type connInputs struct {
	preload []batch    // setup: location frames
	lbqids  [][]byte   // setup: POST /v1/lbqid bodies
	batches []batch    // measured (ingest, durable)
	calls   []jsonCall // measured (requests) or the ingest probe
}

// inputs is a workload's whole traffic, generated from the seed and
// encoded before any server exists.
type inputs struct {
	wl        workload
	agents    int
	conns     [nConns]connInputs
	preloadN  int // location frames sent during setup
	measuredN int // frames (batch workloads) or calls (requests) per pass
	calls     int // service calls across all measured traffic
}

// generate builds the workload's inputs for a seed. agents overrides
// the workload's population (the self-test runs tiny crowds).
func generate(wl workload, seed int64, agents int) (*inputs, error) {
	sc, ok := mobility.ScenarioByName(wl.scenario)
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q", wl.scenario)
	}
	cfg := sc.Config(agents, seed)
	cfg.Days = wl.days
	s := mobility.NewStream(cfg)

	var evs []mobility.Event
	in := &inputs{wl: wl, agents: agents}
	for id := 0; id < agents; id++ {
		a := s.AgentEvents(id, func(ev mobility.Event) { evs = append(evs, ev) })
		if spec, ok := commuteSpec(s, a, wl.twoElement); ok {
			body, err := json.Marshal(httpapi.LBQIDRequest{User: int64(a.User), Spec: spec})
			if err != nil {
				return nil, err
			}
			c := &in.conns[int(a.User)%nConns]
			c.lbqids = append(c.lbqids, body)
		}
	}
	// One global time order (ties broken by user) so both connections
	// replay the city's clock together.
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Point.T != evs[j].Point.T {
			return evs[i].Point.T < evs[j].Point.T
		}
		return evs[i].User < evs[j].User
	})

	var preload, measured [nConns][]mobility.Event
	var reqs []mobility.Event
	for _, ev := range evs {
		c := int(ev.User) % nConns
		switch {
		case wl.preloadDay1:
			if ev.Point.T < tgran.Day {
				if !ev.Request {
					preload[c] = append(preload[c], ev)
				}
			} else {
				measured[c] = append(measured[c], ev)
			}
		case wl.probe > 0: // ingest: locations measured, requests probe
			if ev.Request {
				reqs = append(reqs, ev)
			} else {
				measured[c] = append(measured[c], ev)
			}
		default: // requests: locations preload, requests measured
			if ev.Request {
				reqs = append(reqs, ev)
			} else {
				preload[c] = append(preload[c], ev)
			}
		}
	}
	if wl.probe > 0 && len(reqs) > wl.probe {
		// Every stride-th request, so the probe spans the whole day.
		stride := len(reqs) / wl.probe
		for i := 0; i < wl.probe; i++ {
			reqs[i] = reqs[i*stride]
		}
		reqs = reqs[:wl.probe]
	}
	for c := 0; c < nConns; c++ {
		var err error
		if in.conns[c].preload, err = encodeBatches(preload[c]); err != nil {
			return nil, err
		}
		if in.conns[c].batches, err = encodeBatches(measured[c]); err != nil {
			return nil, err
		}
		in.preloadN += len(preload[c])
		for _, b := range in.conns[c].batches {
			in.measuredN += b.frames
			in.calls += len(b.calls)
		}
	}
	for _, ev := range reqs {
		cl := call{user: int64(ev.User), pt: ev.Point, service: ev.Service}
		body, err := json.Marshal(httpapi.ServiceRequest{
			User: cl.user, X: cl.pt.P.X, Y: cl.pt.P.Y, T: cl.pt.T, Service: cl.service,
		})
		if err != nil {
			return nil, err
		}
		c := &in.conns[int(ev.User)%nConns]
		c.calls = append(c.calls, jsonCall{call: cl, body: body})
	}
	in.calls += len(reqs)
	if wl.name == "requests" {
		in.measuredN = len(reqs)
	}
	return in, nil
}

// encodeBatches packs events, in order, into binary batches of at most
// batchFrames frames: location frames, and service_call frames for
// request events.
func encodeBatches(evs []mobility.Event) ([]batch, error) {
	var out []batch
	var frames []byte
	var cur batch
	flush := func() error {
		if cur.frames == 0 {
			return nil
		}
		body, err := wire.AppendBatch(nil, cur.frames, frames)
		if err != nil {
			return err
		}
		cur.body = body
		out = append(out, cur)
		cur, frames = batch{}, frames[:0]
		return nil
	}
	for _, ev := range evs {
		if ev.Request {
			c := call{user: int64(ev.User), pt: ev.Point, service: ev.Service}
			var err error
			frames, err = wire.AppendServiceCall(frames, wire.ServiceCall{
				User: c.user, X: c.pt.P.X, Y: c.pt.P.Y, T: c.pt.T, Service: c.service,
			})
			if err != nil {
				return nil, err
			}
			cur.calls = append(cur.calls, c)
		} else {
			frames = wire.AppendLocation(frames, wire.LocationUpdate{
				User: int64(ev.User), X: ev.Point.P.X, Y: ev.Point.P.Y, T: ev.Point.T,
			})
		}
		cur.frames++
		if cur.frames == batchFrames {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	return out, flush()
}

// commuteSpec is the commute LBQID of a commuter agent, in the lbqid
// block format: the paper's Example 2 (home → office → office → home,
// 3 weekdays in 2 weeks), or its first two elements. Non-commuters
// have no pattern.
func commuteSpec(s *mobility.Stream, a mobility.Agent, twoElement bool) (string, bool) {
	if !a.Commuter {
		return "", false
	}
	home := s.Homes()[a.Home].Area.Expand(60)
	office := s.Offices()[a.Office].Area.Expand(60)
	area := func(r geo.Rect) string {
		return fmt.Sprintf("[%g,%g]x[%g,%g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
	}
	spec := fmt.Sprintf("lbqid \"commute-u%d\" {\n", int64(a.User))
	spec += fmt.Sprintf("    element \"Home\"   area %s time [06:30,09:00]\n", area(home))
	spec += fmt.Sprintf("    element \"Office\" area %s time [07:00,11:00]\n", area(office))
	if !twoElement {
		spec += fmt.Sprintf("    element \"Office\" area %s time [15:30,19:00]\n", area(office))
		spec += fmt.Sprintf("    element \"Home\"   area %s time [16:00,21:00]\n", area(home))
	}
	spec += "    recurrence 3.Weekdays * 2.Weeks\n}"
	return spec, true
}
