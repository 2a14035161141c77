// Scenario registry: the named workload shapes the comparison harness
// (internal/sim, EXPERIMENTS.md §E-comp) runs the four privacy
// approaches against. scripts/checkexpdocs.sh greps the Name fields
// below and cross-checks them against EXPERIMENTS.md §E-comp, whose
// frontier rows internal/sim computes from this registry, so the
// registry is the single source of truth for scenario names;
// DESIGN.md §11 is the prose catalog.

package mobility

import "histanon/internal/tgran"

// Scenario is one named workload shape at any population scale.
type Scenario struct {
	// Name is the registry key ("rush-hour", "stadium", ...).
	Name string
	// Title is the one-line description used in table notes.
	Title string
	// Stresses says what the shape is hard on.
	Stresses string
	// AdversarialFor names the privacy approach the shape is designed
	// to break (DESIGN.md §11).
	AdversarialFor string
	// Config builds the stream configuration for a population; place
	// counts scale with agents so density stays in a realistic band.
	Config func(agents int, seed int64) StreamConfig
}

// Scenarios returns the §E-comp scenario catalog in report order.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:           "rush-hour",
			Title:          "rush-hour flash crowd",
			Stresses:       "synchronized departures: 90% of the city starts moving inside one 20-minute window",
			AdversarialFor: "cliquecloak (deferral deadlines) and the ingest path",
			Config:         rushHourConfig,
		},
		{
			Name:           "stadium",
			Title:          "stadium-event convergence",
			Stresses:       "most of the population converges on one venue each evening",
			AdversarialFor: "mixzone (one giant mixing crowd, trivial zone placement elsewhere)",
			Config:         stadiumConfig,
		},
		{
			Name:           "federation",
			Title:          "multi-city federation",
			Stresses:       "four city blocks with 10% cross-city commuters whose long trips are unique",
			AdversarialFor: "generalize (witness sets split along city boundaries)",
			Config:         federationConfig,
		},
		{
			Name:           "rural",
			Title:          "sparse rural traces",
			Stresses:       "30×30 km, sparse sampling, rarely k users nearby",
			AdversarialFor: "every k-anonymity approach; suppress-only degenerates to near-total suppression",
			Config:         ruralConfig,
		},
	}
}

// ScenarioByName looks a scenario up in the registry.
func ScenarioByName(name string) (Scenario, bool) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// scalePlaces keeps building density proportional to population with a
// floor, so small smoke runs and million-agent runs share geometry.
func scalePlaces(agents, per, min int) int {
	n := agents / per
	if n < min {
		n = min
	}
	return n
}

func rushHourConfig(agents int, seed int64) StreamConfig {
	return StreamConfig{
		Seed: seed, Agents: agents, Days: 1, Shape: ShapeRushHour,
		Width: 12000, Height: 12000,
		Homes:        scalePlaces(agents, 40, 40),
		Offices:      scalePlaces(agents, 200, 12),
		POIs:         scalePlaces(agents, 250, 20),
		CommuterFrac: 0.9, DepartureWindow: 1200,
		Speed: 12, SampleEvery: 120, IdleEvery: 3600, RequestProb: 0.02,
	}
}

func stadiumConfig(agents int, seed int64) StreamConfig {
	return StreamConfig{
		Seed: seed, Agents: agents, Days: 1, Shape: ShapeStadium,
		Width: 10000, Height: 10000,
		Homes:        scalePlaces(agents, 40, 40),
		Offices:      scalePlaces(agents, 400, 8),
		POIs:         scalePlaces(agents, 250, 16),
		CommuterFrac: 0,
		EventStart:   19 * tgran.Hour, EventDwell: 2*tgran.Hour + 1800, AttendFrac: 0.7,
		Speed: 12, SampleEvery: 120, IdleEvery: 3600, RequestProb: 0.02,
	}
}

func federationConfig(agents int, seed int64) StreamConfig {
	return StreamConfig{
		Seed: seed, Agents: agents, Days: 1, Shape: ShapeFederation,
		Width: 6000, Height: 6000, Cities: 4,
		Homes:        scalePlaces(agents, 160, 30),
		Offices:      scalePlaces(agents, 800, 8),
		POIs:         scalePlaces(agents, 800, 10),
		CommuterFrac: 0.7, CrossCityFrac: 0.1,
		Speed: 14, SampleEvery: 120, IdleEvery: 3600, RequestProb: 0.02,
	}
}

func ruralConfig(agents int, seed int64) StreamConfig {
	return StreamConfig{
		Seed: seed, Agents: agents, Days: 1, Shape: ShapeRural,
		Width: 30000, Height: 30000,
		Homes:        scalePlaces(agents, 100, 30),
		Offices:      scalePlaces(agents, 600, 6),
		POIs:         scalePlaces(agents, 400, 8),
		CommuterFrac: 0.15,
		Speed:        16, SampleEvery: 300, IdleEvery: 7200, RequestProb: 0.02,
	}
}
