package mobility

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"histanon/internal/geo"
)

func testStreamConfig(shape Shape, agents int) StreamConfig {
	sc, ok := ScenarioByName(string(shape))
	if !ok {
		// The commute shape has no scenario entry; use rush-hour geometry
		// without the compressed window.
		cfg := rushHourConfig(agents, 7)
		cfg.Shape = shape
		cfg.DepartureWindow = 0
		return cfg
	}
	return sc.Config(agents, 7)
}

func collectAgent(s *Stream, id int) []Event {
	var out []Event
	s.AgentEvents(id, func(ev Event) { out = append(out, ev) })
	return out
}

// TestStreamDeterministic pins the tentpole guarantee: an agent's
// trajectory is a pure function of (seed, agent id) — identical across
// runs, across Stream instances, and independent of which other agents
// were generated before it.
func TestStreamDeterministic(t *testing.T) {
	for _, sc := range Scenarios() {
		cfg := sc.Config(200, 11)
		a := NewStream(cfg)
		b := NewStream(cfg)
		// Generate unrelated agents first on b only: id 5 must not care.
		collectAgent(b, 0)
		collectAgent(b, 199)
		for _, id := range []int{0, 5, 42, 199} {
			ea, eb := collectAgent(a, id), collectAgent(b, id)
			if len(ea) == 0 {
				t.Fatalf("%s: agent %d emitted no events", sc.Name, id)
			}
			if !reflect.DeepEqual(ea, eb) {
				t.Errorf("%s: agent %d trajectories differ across streams", sc.Name, id)
			}
		}
	}
}

func TestStreamAgentMatchesEvents(t *testing.T) {
	s := NewStream(testStreamConfig(ShapeRushHour, 100))
	for id := 0; id < 100; id += 7 {
		got := s.AgentEvents(id, func(Event) {})
		if want := s.Agent(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("agent %d: AgentEvents roster %+v != Agent %+v", id, got, want)
		}
	}
}

// TestStreamEventsOrdered: per-agent streams must be monotone in time —
// the PHL append fast path and the batch ingest channel both depend on
// it — and every agent must emit at least one request over a day.
func TestStreamEventsOrdered(t *testing.T) {
	for _, sc := range Scenarios() {
		cfg := sc.Config(150, 3)
		s := NewStream(cfg)
		requests := 0
		for id := 0; id < cfg.Agents; id++ {
			last := int64(-1)
			n := 0
			s.AgentEvents(id, func(ev Event) {
				if ev.Point.T < last {
					t.Fatalf("%s: agent %d time went backwards (%d < %d)", sc.Name, id, ev.Point.T, last)
				}
				last = ev.Point.T
				n++
				if ev.Request {
					requests++
				}
			})
			if n == 0 {
				t.Fatalf("%s: agent %d emitted nothing", sc.Name, id)
			}
		}
		if requests == 0 {
			t.Fatalf("%s: no service requests in the whole workload", sc.Name)
		}
	}
}

// TestStadiumConvergence: the stadium shape must actually converge —
// a majority of agents requesting service at the venue in the event
// window is what makes it the mix-zone stress case.
func TestStadiumConvergence(t *testing.T) {
	cfg := testStreamConfig(ShapeStadium, 200)
	s := NewStream(cfg)
	venue, ok := s.Venue()
	if !ok {
		t.Fatal("stadium stream has no venue")
	}
	zone := venue.Area.Expand(200)
	window := geo.Interval{Start: cfg.EventStart - 3600, End: cfg.EventStart + cfg.EventDwell + 3600}
	attendees := 0
	for id := 0; id < cfg.Agents; id++ {
		seen := false
		s.AgentEvents(id, func(ev Event) {
			if ev.Request && zone.Contains(ev.Point.P) && window.Contains(ev.Point.T) {
				seen = true
			}
		})
		if seen {
			attendees++
		}
	}
	if frac := float64(attendees) / float64(cfg.Agents); frac < 0.4 {
		t.Fatalf("only %.0f%% of agents converge on the venue, want ≥40%%", 100*frac)
	}
}

// TestFederationCrossCity: the federation shape must produce cross-city
// commuters and agents spread over every city block.
func TestFederationCrossCity(t *testing.T) {
	cfg := testStreamConfig(ShapeFederation, 400)
	s := NewStream(cfg)
	cities := cfg.Cities
	homeCities := map[int]bool{}
	crossCity := 0
	for id := 0; id < cfg.Agents; id++ {
		a := s.Agent(id)
		hc := a.Home / cfg.Homes
		homeCities[hc] = true
		if a.Commuter && a.Office/cfg.Offices != hc {
			crossCity++
		}
	}
	if len(homeCities) != cities {
		t.Fatalf("agents live in %d cities, want %d", len(homeCities), cities)
	}
	if crossCity == 0 {
		t.Fatal("no cross-city commuters in the federation shape")
	}
}

// TestStreamLayoutBounded: resident state is the layout only, and the
// layout scales with places, not population.
func TestStreamLayoutBounded(t *testing.T) {
	small := NewStream(testStreamConfig(ShapeRural, 1000))
	big := NewStream(testStreamConfig(ShapeRural, 100000))
	if len(big.Homes()) >= 100000/10 {
		t.Fatalf("layout grows too fast: %d homes for 100k agents", len(big.Homes()))
	}
	if len(small.Homes()) == 0 || len(small.POIs()) == 0 {
		t.Fatal("empty layout")
	}
}

func TestStreamPanicsOnBadConfig(t *testing.T) {
	bad := []StreamConfig{
		{},
		{Agents: 10, Days: 1, Homes: 1, Offices: 1}, // zero speed
		{Agents: 10, Days: 1, Homes: 0, Offices: 1, Speed: 1, SampleEvery: 1, IdleEvery: 1},
		{Agents: 10, Days: 1, Homes: 1, Offices: 1, Speed: 1, SampleEvery: 1,
			IdleEvery: 1, Shape: ShapeStadium}, // stadium without event times
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d: expected panic", i)
				}
			}()
			NewStream(cfg)
		}()
	}
}

// TestCommuteShapeMirrorsGenerate: the shared walker must give the
// streaming commute shape the same day structure Generate uses (idle →
// travel with endpoint requests → idle), visible as four service
// requests per weekday for a commuter.
func TestCommuteShapeMirrorsGenerate(t *testing.T) {
	cfg := testStreamConfig(ShapeCommute, 50)
	cfg.CommuterFrac = 1
	cfg.RequestProb = 0
	cfg.Days = 1 // day 0 is a Monday
	s := NewStream(cfg)
	reqs := 0
	s.AgentEvents(3, func(ev Event) {
		if ev.Request {
			reqs++
		}
	})
	if reqs != 4 {
		t.Fatalf("commuter weekday carried %d requests, want 4", reqs)
	}
}

// streamPool streams every agent of s from workers goroutines that
// claim ids from one atomic counter, so the partition is dynamic; agent
// runs on the claiming goroutine with each id's event and request
// counts.
func streamPool(s *Stream, workers int, agent func(id, events, requests int)) {
	n := s.Config().Agents
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := int(next.Add(1)) - 1; id < n; id = int(next.Add(1)) - 1 {
				events, requests := 0, 0
				s.AgentEvents(id, func(ev Event) {
					events++
					if ev.Request {
						requests++
					}
				})
				agent(id, events, requests)
			}
		}()
	}
	wg.Wait()
}

// TestStreamConcurrentDeterministic: concurrent AgentEvents calls on one
// Stream, partitioned dynamically, generate what one goroutine does —
// the same events and requests for every agent. Under -race it also
// checks that Stream is safe for concurrent AgentEvents.
func TestStreamConcurrentDeterministic(t *testing.T) {
	sc, _ := ScenarioByName("stadium")
	s := NewStream(sc.Config(1500, 5))
	var runs [2][][2]int
	for i, workers := range []int{1, 7} {
		perAgent := make([][2]int, s.Config().Agents)
		streamPool(s, workers, func(id, events, requests int) {
			perAgent[id] = [2]int{events, requests}
		})
		runs[i] = perAgent
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatal("per-agent events and requests differ between 1 and 7 goroutines")
	}
}

// TestStreamingAgentsBoundedMemory pins Stream's memory guarantee:
// streaming a million agents from a pool of goroutines keeps the live
// heap O(goroutines + layout), not O(population). A materialized run
// at this scale would hold gigabytes of events; the bound here is two
// orders of magnitude below that.
func TestStreamingAgentsBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-agent stream in -short mode")
	}
	if raceEnabled {
		t.Skip("1M-agent stream under the race detector")
	}
	const agents = 1_000_000
	sc, _ := ScenarioByName("rural")
	s := NewStream(sc.Config(agents, 1))
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	var mu sync.Mutex
	peak := before.HeapAlloc
	var streamed, events atomic.Int64
	streamPool(s, 4, func(id, n, _ int) {
		streamed.Add(1)
		events.Add(int64(n))
		if id%10_000 != 0 {
			return
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mu.Lock()
		peak = max(peak, ms.HeapAlloc)
		mu.Unlock()
	})
	if got := streamed.Load(); got != agents {
		t.Fatalf("streamed %d agents, want %d", got, agents)
	}
	if events.Load() < agents {
		t.Fatalf("implausibly few events: %d", events.Load())
	}
	growth := float64(peak-before.HeapAlloc) / (1 << 20)
	if growth > 128 {
		t.Fatalf("peak heap grew %.1f MB over baseline — not O(goroutines)", growth)
	}
	t.Logf("1M agents, %d events, peak heap growth %.1f MB", events.Load(), growth)
}
