package check

import (
	"fmt"
	"math/rand"

	"histanon/internal/geo"
	"histanon/internal/phl"
	"histanon/internal/stindex"
	"histanon/internal/storage"
	"histanon/internal/ts"
	"histanon/internal/wire"
)

// Batched-ingest differential: ts.Server.RecordLocations hands a run of
// location updates to the store and index in one call each (one lock
// acquisition on phl.Store, a shard-bucketed insert on the grid, one WAL
// write and one group commit on the tiered store). It must leave the
// PHL exactly as RecordLocation called once per sample would. For each
// store kind, twin servers ingest the storage oracle's seeded stream,
// one sample at a time and in seeded runs of 1–64, and the oracle's
// history, box and KNN probes cross-examine them.

// maxIngestRun bounds the seeded run lengths of the batched twin.
const maxIngestRun = 64

// ingestTwin is one server of a twin pair and the views the oracle
// probes.
type ingestTwin struct {
	srv    *ts.Server
	pop    *Population
	tiered *storage.TieredStore // nil on the in-memory kind
}

// newIngestTwin builds a server on a fresh store of the given kind:
// "memory" (phl.Store plus grid, the ts.Server defaults) or "tiered"
// (a TieredStore with the storage oracle's demotion settings on a
// MemFS, doubling as the index).
func newIngestTwin(kind string, cfg PopulationConfig, rng *rand.Rand) (*ingestTwin, error) {
	tw := &ingestTwin{pop: &Population{Cfg: cfg, Metric: geo.STMetric{TimeScale: cfg.TimeScale}, Rng: rng}}
	var tcfg ts.Config
	switch kind {
	case "memory":
		tw.pop.Store, tw.pop.Index = phl.NewStore(), stindex.NewGrid(stindex.ServingCell, stindex.ServingBucket)
		tcfg.Store, tcfg.Index = tw.pop.Store, tw.pop.Index
	case "tiered":
		st, _, err := storage.Open(storageOracleOptions(storage.NewMemFS(), cfg.TimeSpan))
		if err != nil {
			return nil, fmt.Errorf("open tiered store: %w", err)
		}
		tw.tiered = st
		tw.pop.Store, tw.pop.Index = st, st
		tcfg.Store = st
	default:
		return nil, fmt.Errorf("unknown store kind %q", kind)
	}
	tw.srv = ts.New(tcfg, ts.OutboxFunc(func(*wire.Request) {}))
	return tw, nil
}

func (tw *ingestTwin) close() {
	if tw.tiered != nil {
		tw.tiered.Close()
	}
}

// RunBatchedIngestDifferential ingests cfg's oracle stream into twin
// servers per store kind, one through RecordLocation per sample and one
// through RecordLocations in seeded runs, then compares user order,
// every history, NumSamples, and queries randomized box and KNN probes.
// On the tiered kind it also demands that demotion happened on both
// twins and that their WALs hold the same records and bytes. In the
// divergences' details the per-sample twin is "hot" and the batched one
// "tiered"; Index names the kind. An empty slice means batched ingest
// is indistinguishable from per-sample ingest.
func RunBatchedIngestDifferential(cfg PopulationConfig, queries int) ([]Divergence, error) {
	cfg = cfg.withDefaults()
	var divs []Divergence
	for _, kind := range []string{"memory", "tiered"} {
		rng := rand.New(rand.NewSource(cfg.Seed))
		stream := oracleStream(cfg, rng)
		single, err := newIngestTwin(kind, cfg, rng)
		if err != nil {
			return nil, err
		}
		batched, err := newIngestTwin(kind, cfg, rng)
		if err != nil {
			single.close()
			return nil, err
		}
		for _, x := range stream {
			single.srv.RecordLocation(x.User, x.Point)
		}
		runs := 0
		for rest := stream; len(rest) > 0; runs++ {
			n := min(1+rng.Intn(maxIngestRun), len(rest))
			batched.srv.RecordLocations(rest[:n])
			rest = rest[n:]
		}

		o := &StorageOracle{Cfg: cfg, Hot: single.pop, Tiered: batched.pop, rng: rng, leg: "batched-" + kind}
		if runs >= len(stream) {
			o.fail("vacuous", -1, "%d samples in %d runs: no run was longer than one sample", len(stream), runs)
		}
		o.checkHistories()
		for qi := 0; qi < queries; qi++ {
			o.checkBoxQuery(qi)
			o.checkKNNQuery(qi)
		}
		if kind == "tiered" {
			s, b := single.tiered.Stats(), batched.tiered.Stats()
			if s.DemotedSamples == 0 || b.DemotedSamples == 0 {
				o.fail("vacuous", -1, "no samples demoted (per-sample %d, batched %d): no cold path exercised",
					s.DemotedSamples, b.DemotedSamples)
			}
			if s.WALAppends != b.WALAppends || s.WALBytes != b.WALBytes {
				o.fail("wal", -1, "WAL records/bytes: per-sample %d/%d, batched %d/%d",
					s.WALAppends, s.WALBytes, b.WALAppends, b.WALBytes)
			}
		}
		single.close()
		batched.close()
		divs = append(divs, o.divs...)
	}
	return divs, nil
}
