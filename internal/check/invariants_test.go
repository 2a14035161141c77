package check

import (
	"math/rand"
	"testing"

	"histanon/internal/generalize"
	"histanon/internal/geo"
	"histanon/internal/mixzone"
	"histanon/internal/phl"
	"histanon/internal/stindex"
)

// scenarioTolerance derives a tolerance for a scenario: unlimited for a
// third of the seeds, tight for a third, loose otherwise — the checkers
// must hold on every branch of Algorithm 1's lines 8–13.
func scenarioTolerance(rng *rand.Rand, extent float64, span int64) generalize.Tolerance {
	switch rng.Intn(3) {
	case 0:
		return generalize.Unlimited
	case 1:
		return generalize.Tolerance{
			MaxWidth:    extent / 8,
			MaxHeight:   extent / 8,
			MaxDuration: span / 8,
		}
	default:
		return generalize.Tolerance{
			MaxWidth:    extent * 2,
			MaxHeight:   extent * 2,
			MaxDuration: span * 2,
		}
	}
}

// TestAlgorithm1FirstElementProperties checks the Algorithm 1 contract
// (box-enclosure, tolerance compliance, HistoricalLevel >= k) across
// 120 random scenarios, with and without the §7 randomizer, on both a
// brute-force and a grid index.
func TestAlgorithm1FirstElementProperties(t *testing.T) {
	mkGrid := func() stindex.Index { return stindex.NewGrid(250, 900) }
	for seed := int64(1); seed <= 120; seed++ {
		mk := func() stindex.Index { return stindex.NewBrute() }
		if seed%2 == 0 {
			mk = mkGrid
		}
		pop := NewPopulation(PopulationConfig{Seed: seed, Users: 4 + int(seed%30)}, mk)
		g := pop.Generalizer(seed % 3) // seed%3==0: no randomizer
		tol := scenarioTolerance(pop.Rng, pop.Cfg.Extent, pop.Cfg.TimeSpan)
		k := 1 + pop.Rng.Intn(pop.Cfg.Users+2) // sometimes unsatisfiable
		issuer := phl.UserID(pop.Rng.Intn(pop.Cfg.Users))
		for trial := 0; trial < 4; trial++ {
			if err := CheckFirstElement(pop, g, pop.RandomQuery(), issuer, k, tol); err != nil {
				t.Fatalf("seed %d trial %d (k=%d, tol=%v): %v", seed, trial, k, tol, err)
			}
		}
	}
}

// TestAlgorithm1SessionProperties drives whole traces through the §6.2
// session layer and checks Def. 8 end to end: all-HK traces must
// actually achieve historical k-anonymity against the PHL store.
func TestAlgorithm1SessionProperties(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		pop := NewPopulation(PopulationConfig{Seed: 500 + seed, Users: 6 + int(seed%24)}, nil)
		g := pop.Generalizer(seed % 2)
		target := 2 + pop.Rng.Intn(6)
		sched := generalize.DecaySchedule{
			Target:  target,
			Initial: target + pop.Rng.Intn(4),
			Step:    pop.Rng.Intn(2),
		}
		tol := scenarioTolerance(pop.Rng, pop.Cfg.Extent, pop.Cfg.TimeSpan)
		issuer := phl.UserID(pop.Rng.Intn(pop.Cfg.Users))
		trace := make([]geo.STPoint, 1+pop.Rng.Intn(5))
		for i := range trace {
			trace[i] = pop.RandomQuery()
		}
		if err := CheckSession(pop, g, issuer, trace, sched, tol); err != nil {
			t.Fatalf("seed %d (target=%d, tol=%v, trace=%d): %v", seed, target, tol, len(trace), err)
		}
	}
}

// TestGeneralizationKMonotone checks that a larger k never yields a
// smaller box or anonymity set, across 100 scenarios and both index
// families feeding Algorithm 1.
func TestGeneralizationKMonotone(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		mk := func() stindex.Index { return stindex.NewBrute() }
		if seed%2 == 0 {
			mk = func() stindex.Index { return stindex.NewGrid(300, 1200) }
		}
		pop := NewPopulation(PopulationConfig{Seed: 9000 + seed, Users: 5 + int(seed%20)}, mk)
		issuer := phl.UserID(pop.Rng.Intn(pop.Cfg.Users))
		for trial := 0; trial < 3; trial++ {
			if err := CheckKMonotone(pop, pop.RandomQuery(), issuer, pop.Cfg.Users+2); err != nil {
				t.Fatalf("seed %d trial %d: %v", seed, trial, err)
			}
		}
	}
}

// TestPseudonymNeverReused is the §6.3 unlinking property: across many
// users, rotations and concurrent workers, no pseudonym is ever issued
// twice and every rotation is counted.
func TestPseudonymNeverReused(t *testing.T) {
	if err := CheckPseudonymRotation(60, 12, 6); err != nil {
		t.Fatal(err)
	}
	if err := CheckPseudonymRotation(1, 200, 1); err != nil {
		t.Fatal(err)
	}
}

// TestMixZonePlanInvariants checks on-demand mix-zone plans over random
// populations: suppression windows anchored at the request, zones
// covering the request point, distinct non-issuer participants.
func TestMixZonePlanInvariants(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		pop := NewPopulation(PopulationConfig{Seed: 70000 + seed, Users: 4 + int(seed%16)}, nil)
		od := mixzone.OnDemand{
			Quiet:  pop.Rng.Int63n(900),
			Margin: pop.Rng.Float64() * 100,
		}
		if seed%2 == 0 {
			od.FallbackRadius = 200
		}
		q := pop.RandomQuery()
		issuer := phl.UserID(pop.Rng.Intn(pop.Cfg.Users))
		k := 1 + pop.Rng.Intn(6)
		if err := CheckMixZonePlan(pop, issuer, q.P, q.T, k, od); err != nil {
			t.Fatalf("seed %d (k=%d): %v", seed, k, err)
		}
	}
}
