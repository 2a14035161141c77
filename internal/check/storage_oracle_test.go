package check

import (
	"errors"
	"math/rand"
	"testing"

	"histanon/internal/anon"
	"histanon/internal/geo"
	"histanon/internal/phl"
	"histanon/internal/stindex"
	"histanon/internal/storage"
	"histanon/internal/ts"
	"histanon/internal/wire"
)

// TestStorageDifferentialOracle is the headline differential: 120
// random continuous-coordinate populations, each ingested into an
// all-hot store and a TieredStore with aggressive demotion (restarted
// from disk mid-workload), then cross-examined on histories, box and
// KNN queries, LT-consistency, HistoricalLevel and whole Algorithm 1
// generalizations. Any divergence fails the seed.
func TestStorageDifferentialOracle(t *testing.T) {
	for seed := int64(1); seed <= 120; seed++ {
		cfg := PopulationConfig{
			Seed:           seed,
			Users:          6 + int(seed%20),
			SamplesPerUser: 8 + int(seed%9),
		}
		divs, err := RunStorageDifferential(cfg, 24)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(divs) != 0 {
			for _, d := range divs {
				t.Errorf("seed %d: [%s/%s q=%d] %s", seed, d.Index, d.Kind, d.Query, d.Detail)
			}
			t.Fatalf("seed %d: %d divergences", seed, len(divs))
		}
	}
}

// TestStorageOracleFalsifiable proves the oracle can actually fail: a
// single sample recorded into only one view must surface as at least
// one divergence.
func TestStorageOracleFalsifiable(t *testing.T) {
	o, err := NewStorageOracle(PopulationConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if divs := o.Check(16); len(divs) != 0 {
		t.Fatalf("clean run diverged: %v", divs)
	}
	// The injected divergence: the tiered view gains a sample the
	// baseline never saw.
	o.Tiered.Record(0, geo.STPoint{P: geo.Point{X: 1, Y: 2}, T: o.Cfg.TimeSpan / 2})
	if divs := o.Check(16); len(divs) == 0 {
		t.Fatal("oracle missed an injected one-sample divergence")
	}
}

// TestStorageOracleColdFault checks the degradation direction under
// injected cold-read failures: a faulty tiered store may shrink the
// anonymity evidence it reports (suppressing is the server's job) but
// must never inflate it — HistoricalLevel and witness counts can only
// move down, and the fault counter must record every miss.
func TestStorageOracleColdFault(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		o, err := NewStorageOracle(PopulationConfig{Seed: 100 + seed})
		if err != nil {
			t.Fatal(err)
		}
		if o.Store().Stats().DemotedSamples == 0 {
			t.Fatalf("seed %d: nothing demoted; fault leg is vacuous", seed)
		}
		o.FS.FailReads = errors.New("injected cold-read fault")
		faults0 := o.Store().StorageFaults()
		sawFault := false
		for qi := 0; qi < 40; qi++ {
			issuer := phl.UserID(o.rng.Intn(o.Cfg.Users))
			boxes := []geo.STBox{o.randomBox()}
			h := anon.HistoricalLevel(o.Hot.Store, issuer, boxes)
			f := anon.HistoricalLevel(o.Tiered.Store, issuer, boxes)
			if f > h {
				t.Fatalf("seed %d q %d: faulty store inflated HistoricalLevel: %d > %d", seed, qi, f, h)
			}
			if c, hc := o.Tiered.Store.CountUsersIn(boxes[0]), o.Hot.Store.CountUsersIn(boxes[0]); c > hc {
				t.Fatalf("seed %d q %d: faulty store inflated CountUsersIn: %d > %d", seed, qi, c, hc)
			}
			if f != h || o.Store().StorageFaults() > faults0 {
				sawFault = true
			}
		}
		if moved := o.Store().StorageFaults() - faults0; moved == 0 && sawFault {
			t.Fatalf("seed %d: answers shrank but no fault was counted", seed)
		}
		// Healed disk: the views must reconverge exactly.
		o.FS.FailReads = nil
		if divs := o.Check(16); len(divs) != 0 {
			t.Fatalf("seed %d: views did not reconverge after heal: %v", seed, divs)
		}
		o.Close()
	}
}

// storageDecisionLeg runs one trusted-server leg of the decision
// differential: records and requests from a fixed schedule, returning
// the decision fingerprints.
func storageDecisionLeg(t *testing.T, seed int64, store *storage.TieredStore) []string {
	t.Helper()
	cfg := ts.Config{
		Metric:        geo.STMetric{TimeScale: 0.5},
		DefaultPolicy: ts.Policy{K: 3},
		RandomizeSeed: seed,
	}
	if store != nil {
		cfg.Store = store
	}
	srv := ts.New(cfg, ts.OutboxFunc(func(*wire.Request) {}))

	rng := rand.New(rand.NewSource(seed))
	var fps []string
	now := int64(0)
	for i := 0; i < 1200; i++ {
		now += int64(rng.Intn(4))
		u := phl.UserID(rng.Intn(16))
		pt := geo.STPoint{
			P: geo.Point{X: rng.Float64()*2000 - 1000, Y: rng.Float64()*2000 - 1000},
			T: now,
		}
		if i%6 == 5 {
			d := srv.Request(u, pt, "svc", nil)
			fps = append(fps, fingerprint(len(fps), d))
		} else {
			srv.RecordLocation(u, pt)
		}
	}
	return fps
}

// TestStorageOracleServerDecisions is the end-to-end decision leg: the
// same seeded request schedule against a server on the default in-
// memory store and a server on a TieredStore doubling as the index,
// with most of the PHL demoted to disk. Every decision fingerprint —
// outcome, generalized context, pseudonym, trace — must be
// byte-identical.
func TestStorageOracleServerDecisions(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		fsys := storage.NewMemFS()
		st, _, err := storage.Open(storage.Options{
			Dir:              "oracle",
			FS:               fsys,
			SnapshotEvery:    48,
			HotWindow:        400,
			MaxDeltas:        3,
			ColdCacheEntries: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		hot := storageDecisionLeg(t, seed, nil)
		tiered := storageDecisionLeg(t, seed, st)
		if st.Stats().DemotedSamples == 0 {
			t.Fatalf("seed %d: nothing demoted; decision leg is vacuous", seed)
		}
		if len(hot) != len(tiered) {
			t.Fatalf("seed %d: %d hot decisions, %d tiered", seed, len(hot), len(tiered))
		}
		for i := range hot {
			if hot[i] != tiered[i] {
				t.Fatalf("seed %d decision %d diverged:\n  hot:    %s\n  tiered: %s",
					seed, i, hot[i], tiered[i])
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStorageDifferentialBatchedIngest holds batched ingest to
// per-sample ingest: for 60 seeds and both store kinds (phl.Store plus
// grid, and the tiered store with the oracle's aggressive demotion),
// a server fed RecordLocations in seeded runs of 1–64 must be
// indistinguishable from one fed RecordLocation per sample.
func TestStorageDifferentialBatchedIngest(t *testing.T) {
	var (
		_ ts.BatchStorer = (*phl.Store)(nil)
		_ ts.BatchIndex  = (*stindex.Grid)(nil)
		_ ts.BatchStorer = (*storage.TieredStore)(nil)
		_ ts.BatchIndex  = (*storage.TieredStore)(nil)
	)
	for seed := int64(1); seed <= 60; seed++ {
		cfg := PopulationConfig{
			Seed:           seed,
			Users:          6 + int(seed%20),
			SamplesPerUser: 8 + int(seed%9),
		}
		divs, err := RunBatchedIngestDifferential(cfg, 24)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, d := range divs {
			t.Errorf("seed %d: [%s/%s q=%d] %s", seed, d.Index, d.Kind, d.Query, d.Detail)
		}
		if len(divs) != 0 {
			t.Fatalf("seed %d: %d divergences", seed, len(divs))
		}
	}
}
