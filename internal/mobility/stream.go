// Streaming agent generation: Stream materializes agents purely from
// (seed, agent id), holding only the city layout resident — O(places),
// never O(population) — so workloads scale to millions of agents on one
// node. On top of the walker's commute/errand days it adds the scenario
// shapes of EXPERIMENTS.md §E-comp (see scenarios.go for the registry
// and DESIGN.md §11 for the catalog):
//
//   - rush-hour: a flash crowd — departures compressed into a short
//     window so the whole city moves at once;
//   - stadium: evening convergence of most of the population on one
//     venue, the mix-zone stress case;
//   - federation: several city blocks with a minority of cross-city
//     commuters, splitting anonymity sets along city boundaries;
//   - rural: a sparse 30×30 km area where k users are rarely nearby
//     and k-anonymity is hardest.

package mobility

import (
	"math"

	"histanon/internal/geo"
	"histanon/internal/phl"
	"histanon/internal/tgran"
)

// Shape selects a scenario's day structure.
type Shape string

// The scenario shapes. ShapeCommute is the Generate-equivalent default;
// the other four are the §E-comp workloads.
const (
	ShapeCommute    Shape = "commute"
	ShapeRushHour   Shape = "rush-hour"
	ShapeStadium    Shape = "stadium"
	ShapeFederation Shape = "federation"
	ShapeRural      Shape = "rural"
)

// StreamConfig parameterizes a streaming workload. Width/Height and the
// place counts are per city; Cities > 1 lays city blocks out on a grid
// separated by half a city width (the federation shape).
type StreamConfig struct {
	// Seed drives all randomness; agent id selects the per-agent stream.
	Seed int64
	// Agents is the population; agents are materialized on demand, so
	// this bounds id range, not memory.
	Agents int
	// Days is the number of simulated days starting at day 0 (a Monday).
	Days int
	// Shape selects the day structure.
	Shape Shape
	// Width and Height are the extent of one city in meters.
	Width, Height float64
	// Homes, Offices and POIs are per-city building counts.
	Homes, Offices, POIs int
	// Cities is the number of city blocks (0 and 1 mean a single city).
	Cities int
	// CommuterFrac is the fraction of agents on a commuter schedule.
	CommuterFrac float64
	// CrossCityFrac is the fraction of commuters whose office is in a
	// different city than their home (federation only).
	CrossCityFrac float64
	// DepartureWindow, when positive, compresses commuter departures
	// into [08:00, 08:00+window] and [17:00, 17:00+window] (the
	// rush-hour flash crowd); zero keeps the Example-1 windows.
	DepartureWindow int64
	// EventStart and EventDwell place the stadium event: start is the
	// second-of-day the event begins, dwell how long attendees stay.
	EventStart, EventDwell int64
	// AttendFrac is the per-day probability an agent attends the event.
	AttendFrac float64
	// Speed, SampleEvery, IdleEvery and RequestProb are as in Config.
	Speed       float64
	SampleEvery int64
	IdleEvery   int64
	RequestProb float64
	// ManhattanRoutes is as in Config.
	ManhattanRoutes bool
}

// Stream streams per-agent trajectories without resident agent state.
// It is immutable after NewStream and safe for concurrent AgentEvents
// calls (TestStreamConcurrentDeterministic checks this under -race).
type Stream struct {
	cfg    StreamConfig
	cities int
	homes  []Place
	office []Place
	pois   []Place
	venue  Place
}

// agentStreamBase keeps agent rng streams clear of the layout stream.
const (
	layoutStream    uint64 = 1 << 40
	agentStreamBase uint64 = 0
)

// NewStream validates the configuration and builds the city layout —
// the only resident state.
func NewStream(cfg StreamConfig) *Stream {
	if cfg.Agents <= 0 || cfg.Days <= 0 {
		panic("mobility: Agents and Days must be positive")
	}
	if cfg.Homes <= 0 || cfg.Offices <= 0 {
		panic("mobility: need at least one home and one office per city")
	}
	if cfg.Speed <= 0 || cfg.SampleEvery <= 0 || cfg.IdleEvery <= 0 {
		panic("mobility: Speed, SampleEvery and IdleEvery must be positive")
	}
	if cfg.Shape == ShapeStadium && (cfg.EventStart <= 0 || cfg.EventDwell <= 0) {
		panic("mobility: stadium shape needs EventStart and EventDwell")
	}
	cities := cfg.Cities
	if cities < 1 {
		cities = 1
	}
	s := &Stream{cfg: cfg, cities: cities}
	rng := newSMRand(cfg.Seed, layoutStream)
	for c := 0; c < cities; c++ {
		origin := s.cityOrigin(c)
		s.homes = append(s.homes, placesAt(&rng, "home", cfg.Homes, c*cfg.Homes, origin, cfg.Width, cfg.Height, 60)...)
		s.office = append(s.office, placesAt(&rng, "office", cfg.Offices, c*cfg.Offices, origin, cfg.Width, cfg.Height, 120)...)
		s.pois = append(s.pois, placesAt(&rng, "poi", cfg.POIs, c*cfg.POIs, origin, cfg.Width, cfg.Height, 40)...)
	}
	if cfg.Shape == ShapeStadium {
		center := geo.Point{X: cfg.Width / 2, Y: cfg.Height / 2}
		s.venue = Place{Name: "venue", Center: center, Area: geo.RectAround(center).Expand(150)}
	}
	return s
}

// cityOrigin lays city blocks on a square grid separated by half a city
// width, so inter-city trips are long and cross a visible gap.
func (s *Stream) cityOrigin(c int) geo.Point {
	cols := int(math.Ceil(math.Sqrt(float64(s.cities))))
	return geo.Point{
		X: float64(c%cols) * (s.cfg.Width + s.cfg.Width/2),
		Y: float64(c/cols) * (s.cfg.Height + s.cfg.Height/2),
	}
}

// Config returns the stream's configuration.
func (s *Stream) Config() StreamConfig { return s.cfg }

// Homes returns the layout's homes across all cities.
func (s *Stream) Homes() []Place { return s.homes }

// Offices returns the layout's offices across all cities.
func (s *Stream) Offices() []Place { return s.office }

// POIs returns the layout's points of interest across all cities.
func (s *Stream) POIs() []Place { return s.pois }

// Venue returns the stadium venue; ok is false for other shapes.
func (s *Stream) Venue() (Place, bool) {
	return s.venue, s.cfg.Shape == ShapeStadium
}

// Agent materializes agent id's roster entry. The result is a pure
// function of (Seed, id) — same across runs and worker partitions.
func (s *Stream) Agent(id int) Agent {
	rng := newSMRand(s.cfg.Seed, agentStreamBase+uint64(id))
	return s.deriveAgent(id, &rng)
}

func (s *Stream) deriveAgent(id int, rng *smRand) Agent {
	a := Agent{User: phl.UserID(id), Office: -1}
	city := 0
	if s.cities > 1 {
		city = rng.Intn(s.cities)
	}
	a.Commuter = rng.Float64() < s.cfg.CommuterFrac
	a.Home = city*s.cfg.Homes + rng.Intn(s.cfg.Homes)
	if a.Commuter {
		officeCity := city
		if s.cities > 1 && rng.Float64() < s.cfg.CrossCityFrac {
			// A cross-city commuter: pick any other city.
			officeCity = rng.Intn(s.cities - 1)
			if officeCity >= city {
				officeCity++
			}
		}
		a.Office = officeCity*s.cfg.Offices + rng.Intn(s.cfg.Offices)
		if s.cfg.DepartureWindow > 0 {
			a.LeaveHome = 8*tgran.Hour + int64(rng.Intn(int(s.cfg.DepartureWindow)))
			a.LeaveOffice = 17*tgran.Hour + int64(rng.Intn(int(s.cfg.DepartureWindow)))
		} else {
			a.LeaveHome = 7*tgran.Hour + int64(rng.Intn(int(tgran.Hour)))
			a.LeaveOffice = 16*tgran.Hour + int64(rng.Intn(int(2*tgran.Hour)))
		}
	}
	return a
}

// AgentEvents generates agent id's full trajectory, calling yield for
// every event in non-decreasing time order, and returns the roster
// entry. It allocates no per-agent state beyond one inline rng, so
// callers can stream any number of agents with bounded memory.
func (s *Stream) AgentEvents(id int, yield func(Event)) Agent {
	rng := newSMRand(s.cfg.Seed, agentStreamBase+uint64(id))
	a := s.deriveAgent(id, &rng)
	// A day's last trip can spill a few samples past midnight; lift the
	// next day's first events onto the spill so the per-agent stream
	// stays monotone (the PHL and the wire batch path both prefer it).
	last := int64(0)
	wk := s.walker(func(ev Event) {
		if ev.Point.T < last {
			ev.Point.T = last
		}
		last = ev.Point.T
		yield(ev)
	})
	for day := 0; day < s.cfg.Days; day++ {
		s.agentDay(wk, &a, &rng, day)
	}
	return a
}

func (s *Stream) walker(sink func(Event)) *walker {
	return &walker{
		homes:       s.homes,
		offices:     s.office,
		pois:        s.pois,
		speed:       s.cfg.Speed,
		sampleEvery: s.cfg.SampleEvery,
		idleEvery:   s.cfg.IdleEvery,
		requestProb: s.cfg.RequestProb,
		manhattan:   s.cfg.ManhattanRoutes,
		sink:        sink,
	}
}

// agentDay dispatches one simulated day through the shape's structure.
func (s *Stream) agentDay(wk *walker, a *Agent, rng *smRand, day int) {
	dayStart := int64(day) * tgran.Day
	weekday := day%7 < 5
	switch s.cfg.Shape {
	case ShapeStadium:
		if rng.Float64() < s.cfg.AttendFrac {
			wk.stadiumDay(a, rng, dayStart, s.venue, s.cfg.EventStart, s.cfg.EventDwell)
		} else {
			wk.errandDay(a, rng, dayStart, rng.Intn(2))
		}
	case ShapeRural:
		// Sparse days: most agents stay home or run at most one errand.
		if a.Commuter && weekday {
			wk.commuterDay(a, rng, dayStart)
		} else {
			wk.errandDay(a, rng, dayStart, rng.Intn(2))
		}
	default: // commute, rush-hour, federation: the classic day structure
		if a.Commuter && weekday {
			wk.commuterDay(a, rng, dayStart)
		} else {
			wk.wandererDay(a, rng, dayStart)
		}
	}
}

// stadiumDay converges the agent on the venue so that arrival lands in
// a ±15-minute window around the event start — the synchronized crowd
// that stresses mix-zone placement and floods the ingest path.
func (wk *walker) stadiumDay(a *Agent, rng randSrc, dayStart int64, venue Place, eventStart, dwell int64) {
	home := wk.homes[a.Home]
	target := dayStart + eventStart + int64(rng.Intn(1800)) - 900
	dist := home.Center.Dist(venue.Center)
	if wk.manhattan {
		dist = math.Abs(venue.Center.X-home.Center.X) + math.Abs(venue.Center.Y-home.Center.Y)
	}
	depart := target - int64(math.Ceil(dist/wk.speed))
	if depart < dayStart {
		depart = dayStart
	}
	wk.idle(a, rng, home, dayStart, depart)
	wk.request(a, jitterPos(rng, home.Center, 30), depart, "navigation")
	arrive := wk.travel(a, rng, home.Center, venue.Center, depart)
	wk.request(a, jitterPos(rng, venue.Center, 60), arrive, "poi-finder")
	leave := arrive + dwell + int64(rng.Intn(900))
	wk.idle(a, rng, venue, arrive, leave)
	wk.request(a, jitterPos(rng, venue.Center, 60), leave, "navigation")
	back := wk.travel(a, rng, venue.Center, home.Center, leave)
	wk.idle(a, rng, home, back, dayStart+tgran.Day)
}
