// Package check is the repository's correctness harness: machine-checked
// oracles for the properties the rest of the system silently relies on.
// It exists so that performance work (sharding, caching, new index
// structures) cannot drift away from the paper's semantics without a
// test failing.
//
// Three layers:
//
//   - A deterministic randomized-workload generator (workload.go):
//     seeded users with trajectory-shaped location histories plus a mix
//     of box and k-nearest queries, reproducible from a single seed.
//
//   - A differential oracle (oracle.go): every workload runs against all
//     stindex implementations and any divergence from the brute-force
//     baseline — different user sets for a box query, a different k-th
//     distance bound for a KNN query — is reported as a Divergence.
//     RunConcurrent additionally interleaves inserts with queries from
//     several goroutines (structural invariants only, since exact
//     agreement is unobservable mid-mutation) and then re-checks full
//     agreement at quiescence; run it under -race.
//
//   - Privacy-layer invariant checkers (invariants.go): Algorithm 1
//     output boxes must enclose the original request point, respect the
//     service tolerance (or report HKAnonymity=false), and certify
//     anon.HistoricalLevel ≥ k; generalization must be monotone in k;
//     pseudonym rotation must never reuse a retired pseudonym; mix-zone
//     plans must cover the request point and exclude the issuer.
//
// The package-level functions return error/Divergence values instead of
// taking *testing.T, so the same checkers back ordinary property tests,
// native fuzz targets, and (if ever needed) a standalone soak binary.
//
// To extend the harness when adding a new index implementation, add a
// constructor to Indexes. To add an invariant for a new generalizer,
// follow CheckFirstElement: run the component, then assert the paper
// property against the PHL store directly — never against the component's
// own bookkeeping. See DESIGN.md §8.
package check

import (
	"fmt"

	"histanon/internal/stindex"
)

// Divergence is one observed disagreement between an index under test
// and the brute-force baseline, or a violated structural invariant.
type Divergence struct {
	// Index names the implementation that diverged.
	Index string
	// Kind classifies the failure (e.g. "box-users", "knn-dist").
	Kind string
	// Query is the index of the failing query within its workload slice
	// (-1 when the failure is not tied to one query).
	Query int
	// Detail is a human-readable description of the disagreement.
	Detail string
}

func (d Divergence) String() string {
	return fmt.Sprintf("%s/%s query %d: %s", d.Index, d.Kind, d.Query, d.Detail)
}

// Indexes returns constructors for every index implementation under
// test, keyed by name. The workload's extent and time span size the grid
// variants; two grid granularities are exercised because cell geometry
// is where grid bugs hide (shell pruning, clamping, negative cells).
func Indexes(cfg WorkloadConfig) map[string]func() stindex.Index {
	cfg = cfg.withDefaults()
	coarseCell := cfg.Extent / 4
	fineCell := cfg.Extent / 32
	bucket := cfg.TimeSpan / 8
	if bucket < 1 {
		bucket = 1
	}
	return map[string]func() stindex.Index{
		"brute":       func() stindex.Index { return stindex.NewBrute() },
		"grid-coarse": func() stindex.Index { return stindex.NewGrid(coarseCell, bucket) },
		"grid-fine":   func() stindex.Index { return stindex.NewGrid(fineCell, bucket) },
		"rtree":       func() stindex.Index { return stindex.NewRTree() },
	}
}
