package check

import (
	"testing"
)

// TestDifferentialOracle runs the full index-agreement oracle over 200
// seeded workloads (the CI acceptance floor). Every box query must
// return the same user set on all four index families and every KNN
// query the same distance profile as brute force.
func TestDifferentialOracle(t *testing.T) {
	const workloads = 200
	queriesRun := 0
	for seed := int64(1); seed <= workloads; seed++ {
		w := NewWorkload(WorkloadConfig{
			Seed:       seed,
			Users:      8 + int(seed%40),
			Samples:    120 + int(seed%5)*80,
			BoxQueries: 10,
			KNNQueries: 10,
			TimeScale:  0.25 * float64(1+seed%4),
		})
		if divs := RunDifferential(w); len(divs) > 0 {
			for _, d := range divs {
				t.Errorf("seed %d: %s", seed, d)
			}
			t.Fatalf("seed %d: %d divergences", seed, len(divs))
		}
		queriesRun += len(w.Boxes) + len(w.KNNs)
	}
	if queriesRun < workloads*20 {
		t.Fatalf("only %d queries generated; the oracle lost its teeth", queriesRun)
	}
}

// TestDifferentialOracleTinyPopulations hits the degenerate corner the
// big sweep rarely reaches: single-user stores, single samples, k far
// above the population.
func TestDifferentialOracleTinyPopulations(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		w := NewWorkload(WorkloadConfig{
			Seed:       seed,
			Users:      1 + int(seed%3),
			Samples:    1 + int(seed%7),
			BoxQueries: 4,
			KNNQueries: 6,
			MaxK:       5,
		})
		if divs := RunDifferential(w); len(divs) > 0 {
			for _, d := range divs {
				t.Errorf("seed %d: %s", seed, d)
			}
			t.Fatalf("seed %d: tiny-population divergence", seed)
		}
	}
}

// TestConcurrentOracle interleaves inserts with queries from several
// goroutines (structural invariants live), then requires exact
// brute-force agreement at quiescence. Run under -race this is the
// concurrent insert/query schedule of the acceptance criteria.
func TestConcurrentOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		w := NewWorkload(WorkloadConfig{
			Seed:       1000 + seed,
			Users:      24,
			Samples:    600,
			BoxQueries: 8,
			KNNQueries: 8,
		})
		if divs := RunConcurrent(w, 4); len(divs) > 0 {
			for _, d := range divs {
				t.Errorf("seed %d: %s", seed, d)
			}
			t.Fatalf("seed %d: concurrent schedule diverged", seed)
		}
	}
}

// TestWorkloadDeterminism guards the harness itself: the same seed must
// reproduce the same workload bit for bit, or pinned regression seeds
// stop meaning anything.
func TestWorkloadDeterminism(t *testing.T) {
	a := NewWorkload(WorkloadConfig{Seed: 42})
	b := NewWorkload(WorkloadConfig{Seed: 42})
	if len(a.Inserts) != len(b.Inserts) || len(a.Boxes) != len(b.Boxes) || len(a.KNNs) != len(b.KNNs) {
		t.Fatal("same seed produced different workload shapes")
	}
	for i := range a.Inserts {
		if a.Inserts[i] != b.Inserts[i] {
			t.Fatalf("insert %d differs between identically seeded workloads", i)
		}
	}
	for i := range a.Boxes {
		if a.Boxes[i] != b.Boxes[i] {
			t.Fatalf("box query %d differs between identically seeded workloads", i)
		}
	}
	for i := range a.KNNs {
		if a.KNNs[i].Q != b.KNNs[i].Q || a.KNNs[i].K != b.KNNs[i].K {
			t.Fatalf("knn query %d differs between identically seeded workloads", i)
		}
	}
	c := NewWorkload(WorkloadConfig{Seed: 43})
	same := len(a.Inserts) == len(c.Inserts)
	if same {
		for i := range a.Inserts {
			if a.Inserts[i] != c.Inserts[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

// TestOracleDetectsDivergence feeds the oracle a deliberately broken
// index and requires it to notice — the harness must be falsifiable.
func TestOracleDetectsDivergence(t *testing.T) {
	w := NewWorkload(WorkloadConfig{Seed: 7, Users: 16, Samples: 200, BoxQueries: 8, KNNQueries: 8})
	indexes := buildAll(w)
	// Sabotage one implementation by dropping every third insert.
	broken := Indexes(w.Cfg)["rtree"]()
	for i, in := range w.Inserts {
		if i%3 != 0 {
			broken.Insert(in.User, in.Point)
		}
	}
	indexes["rtree"] = broken
	if divs := diffAll(w, indexes, ownership(w)); len(divs) == 0 {
		t.Fatal("oracle failed to flag an index missing a third of the data")
	}
}
