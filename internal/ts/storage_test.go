package ts

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"histanon/internal/geo"
	"histanon/internal/phl"
	"histanon/internal/storage"
	"histanon/internal/tgran"
	"histanon/internal/wire"
)

// tieredServer builds a server on a TieredStore over a crash-simulating
// MemFS with aggressive demotion, so requests exercise the cold path.
func tieredServer(t *testing.T, fsys *storage.MemFS) (*Server, *storage.TieredStore) {
	t.Helper()
	st, _, err := storage.Open(storage.Options{
		Dir:              "store",
		FS:               fsys,
		SnapshotEvery:    32,
		HotWindow:        60,
		MaxDeltas:        3,
		ColdCacheEntries: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		DefaultPolicy: Policy{K: 2},
		Store:         st,
	}, OutboxFunc(func(*wire.Request) {}))
	return s, st
}

func storagePopulate(s *Server, rng *rand.Rand, n, users int) {
	t := int64(0)
	for i := 0; i < n; i++ {
		t += int64(rng.Intn(5))
		u := phl.UserID(rng.Intn(users))
		s.RecordLocation(u, geo.STPoint{
			P: geo.Point{X: rng.Float64() * 2e3, Y: rng.Float64() * 2e3},
			T: t,
		})
	}
}

// A server on a tiered store with most of the PHL demoted must keep
// serving requests normally: the cold tier is invisible to Algorithm 1.
func TestServerOnTieredStoreServes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fsys := storage.NewMemFS()
	s, st := tieredServer(t, fsys)
	defer st.Close()
	storagePopulate(s, rng, 2000, 20)
	if st.Stats().DemotedSamples == 0 {
		t.Fatal("nothing demoted; the test is vacuous")
	}
	served := 0
	for i := 0; i < 50; i++ {
		u := phl.UserID(rng.Intn(20))
		dec := s.Request(u, geo.STPoint{
			P: geo.Point{X: rng.Float64() * 2e3, Y: rng.Float64() * 2e3},
			T: 2000 + int64(i),
		}, "svc", nil)
		if dec.Degraded {
			t.Fatalf("request %d degraded on a healthy store: %s", i, dec.DegradedReason)
		}
		if !dec.Suppressed {
			served++
		}
	}
	if served == 0 {
		t.Fatal("no request was served")
	}
}

// A cold read failure during a request must degrade that request to
// audited suppression — never an answer over a partial PHL.
func TestServerSuppressesOnColdReadFault(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	fsys := storage.NewMemFS()
	s, st := tieredServer(t, fsys)
	defer st.Close()
	storagePopulate(s, rng, 2000, 20)
	if st.Stats().DemotedSamples == 0 {
		t.Fatal("nothing demoted")
	}

	fsys.FailReads = errors.New("injected cold-read error")
	degraded := false
	for i := 0; i < 50 && !degraded; i++ {
		u := phl.UserID(rng.Intn(20))
		dec := s.Request(u, geo.STPoint{
			P: geo.Point{X: rng.Float64() * 2e3, Y: rng.Float64() * 2e3},
			T: 2000 + int64(i),
		}, "svc", nil)
		if dec.Degraded {
			if !dec.Suppressed || dec.DegradedReason != "storage_cold_read" {
				t.Fatalf("degraded decision = %+v", dec)
			}
			degraded = true
		}
	}
	if !degraded {
		t.Fatal("no request hit the injected cold-read fault (cache too effective?)")
	}
	fsys.FailReads = nil

	// Healed disk: requests serve again (the fault counter is monotone
	// but only movement during a request suppresses).
	healthy := false
	for i := 0; i < 50 && !healthy; i++ {
		u := phl.UserID(rng.Intn(20))
		dec := s.Request(u, geo.STPoint{
			P: geo.Point{X: rng.Float64() * 2e3, Y: rng.Float64() * 2e3},
			T: 2100 + int64(i),
		}, "svc", nil)
		healthy = !dec.Degraded
	}
	if !healthy {
		t.Fatal("requests still degraded after the disk healed")
	}
}

// A WAL failure is fail-stop: every subsequent request is suppressed
// with storage_wal_failed, even after the disk heals.
func TestServerSuppressesAfterWALFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fsys := storage.NewMemFS()
	s, st := tieredServer(t, fsys)
	defer st.Close()
	storagePopulate(s, rng, 200, 10)

	fsys.FailSyncs = errors.New("injected fsync error")
	s.RecordLocation(1, geo.STPoint{P: geo.Point{X: 1, Y: 1}, T: 3000})
	fsys.FailSyncs = nil
	if !st.StorageFailed() {
		t.Fatal("fsync error did not latch")
	}
	for i := 0; i < 5; i++ {
		dec := s.Request(phl.UserID(i), geo.STPoint{
			P: geo.Point{X: rng.Float64() * 2e3, Y: rng.Float64() * 2e3},
			T: 3100 + int64(i),
		}, "svc", nil)
		if !dec.Suppressed || dec.DegradedReason != "storage_wal_failed" {
			t.Fatalf("request %d after WAL failure = %+v", i, dec)
		}
	}
}

// The storage metric families must be present on every server: live on
// a tiered store, zero placeholders on the default in-memory store.
func TestStorageMetricFamiliesAlwaysExposed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	fsys := storage.NewMemFS()
	tiered, st := tieredServer(t, fsys)
	defer st.Close()
	storagePopulate(tiered, rng, 500, 10)
	plain := New(Config{DefaultPolicy: Policy{K: 2}}, OutboxFunc(func(*wire.Request) {}))

	for name, s := range map[string]*Server{"tiered": tiered, "plain": plain} {
		var sb strings.Builder
		s.MetricsRegistry().WritePrometheus(&sb)
		text := sb.String()
		for _, family := range []string{
			"histanon_storage_wal_appends_total",
			"histanon_storage_wal_fsyncs_total",
			"histanon_storage_cold_reads_total",
			"histanon_storage_hot_samples",
			"histanon_storage_failed",
		} {
			if !strings.Contains(text, family) {
				t.Fatalf("%s server: family %s missing from exposition", name, family)
			}
		}
	}
	var sb strings.Builder
	tiered.MetricsRegistry().WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `histanon_storage_wal_appends_total 500`) {
		t.Fatal("tiered server exposes placeholder storage counters, not live ones")
	}
}

// The tiered store doubles as the server's spatio-temporal index when
// none is configured; a server restarted on the same directory must
// serve the same PHL.
func TestServerTieredRestartKeepsPHL(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fsys := storage.NewMemFS()
	s, st := tieredServer(t, fsys)
	storagePopulate(s, rng, 1000, 15)
	seedCrowd(s, 6, 2)
	users, samples := st.NumUsers(), st.NumSamples()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	s2, st2 := tieredServer(t, fsys)
	defer st2.Close()
	if st2.NumUsers() != users || st2.NumSamples() != samples {
		t.Fatalf("restart lost PHL: %d/%d users, %d/%d samples",
			st2.NumUsers(), users, st2.NumSamples(), samples)
	}
	dec := s2.Request(1, geo.STPoint{P: geo.Point{X: 100, Y: 100}, T: 5000}, "svc", nil)
	if dec.Degraded {
		t.Fatalf("request degraded after clean restart: %s", dec.DegradedReason)
	}
	// The recovered PHL serves generalization at once: the issuer's
	// witnesses are the crowd recorded before the restart.
	if err := s2.AddLBQIDSpec(0, commuteLBQID); err != nil {
		t.Fatal(err)
	}
	dec = s2.Request(0, pt(50, 50, at(0, 7*tgran.Hour+600)), "navigation", nil)
	if !dec.Generalized || !dec.HKAnonymity {
		t.Fatalf("recovered server must generalize: %+v", dec)
	}
}
