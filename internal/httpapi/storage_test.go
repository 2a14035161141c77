package httpapi

import (
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"histanon/internal/geo"
	"histanon/internal/phl"
	"histanon/internal/sp"
	"histanon/internal/storage"
	"histanon/internal/tgran"
	"histanon/internal/ts"
	"histanon/internal/wire"
)

// newTieredTestServer builds the HTTP layer over a trusted server
// whose PHL lives in a durable tiered store on a crash-simulating
// MemFS, with /healthz wired to the store.
func newTieredTestServer(t *testing.T) (*httptest.Server, *ts.Server, *storage.MemFS, *storage.TieredStore) {
	t.Helper()
	fsys := storage.NewMemFS()
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
	t.Cleanup(func() { st.Close() })
	srv := ts.New(ts.Config{DefaultPolicy: ts.Policy{K: 2}, Store: st}, sp.NewProvider())
	h := New(srv)
	h.SetStorage(st)
	hts := httptest.NewServer(h)
	t.Cleanup(hts.Close)
	return hts, srv, fsys, st
}

func getHealth(t *testing.T, url string) HealthResponse {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d", resp.StatusCode)
	}
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	return hr
}

// /healthz must report the tiered store's real state: demoted samples
// on a healthy server, then storage_wal_failed once the WAL dies.
func TestHealthzStorageSection(t *testing.T) {
	hts, srv, fsys, st := newTieredTestServer(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1500; i++ {
		srv.RecordLocation(phl.UserID(rng.Intn(20)), geo.STPoint{
			P: geo.Point{X: rng.Float64() * 2e3, Y: rng.Float64() * 2e3},
			T: int64(i),
		})
	}

	hr := getHealth(t, hts.URL)
	if hr.Status != "ok" {
		t.Fatalf("healthy tiered server reports %q (%v)", hr.Status, hr.Degraded)
	}
	sh := hr.Storage
	if sh == nil {
		t.Fatal("healthz has no storage section despite SetStorage")
	}
	if sh.Failed {
		t.Fatal("healthy store reported failed")
	}
	if sh.ColdSamples == 0 || sh.HotSamples == 0 {
		t.Fatalf("tier occupancy not reported: hot=%d cold=%d", sh.HotSamples, sh.ColdSamples)
	}
	if sh.HotSamples+sh.ColdSamples != st.NumSamples() {
		t.Fatalf("hot %d + cold %d != %d samples", sh.HotSamples, sh.ColdSamples, st.NumSamples())
	}

	// Kill the WAL: the next record latches fail-stop, and /healthz
	// must flip to degraded with the storage reason.
	fsys.FailSyncs = errors.New("injected fsync failure")
	srv.RecordLocation(1, geo.STPoint{P: geo.Point{X: 1, Y: 1}, T: 9000})
	fsys.FailSyncs = nil
	if !st.StorageFailed() {
		t.Fatal("fsync failure did not latch")
	}
	hr = getHealth(t, hts.URL)
	if hr.Status != "degraded" {
		t.Fatalf("failed store reports status %q", hr.Status)
	}
	if hr.Storage == nil || !hr.Storage.Failed {
		t.Fatalf("storage section does not report the failure: %+v", hr.Storage)
	}
	found := false
	for _, reason := range hr.Degraded {
		if reason == "storage_wal_failed" {
			found = true
		}
	}
	if !found {
		t.Fatalf("degraded reasons %v missing storage_wal_failed", hr.Degraded)
	}
}

// Once the WAL has failed, a location update is not persisted, so
// neither endpoint may acknowledge it: both answer 503 naming
// storage_wal_failed, /v1/batch processes no frame after the run that
// failed, and /healthz keeps reporting the failure.
func TestWALFailureRefusesLocationAcks(t *testing.T) {
	hts, srv, fsys, st := newTieredTestServer(t)
	fsys.FailSyncs = errors.New("injected fsync failure")

	wantRefused := func(resp *http.Response, what string) {
		t.Helper()
		defer resp.Body.Close()
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: decoding body: %v", what, err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(e.Error, "storage_wal_failed") {
			t.Fatalf("%s after a WAL failure: status %d, error %q; want 503 naming storage_wal_failed",
				what, resp.StatusCode, e.Error)
		}
	}

	resp, err := http.Post(hts.URL+"/v1/location", "application/json",
		strings.NewReader(`{"user":1,"x":10,"y":10,"t":100}`))
	if err != nil {
		t.Fatal(err)
	}
	wantRefused(resp, "/v1/location")
	if !st.StorageFailed() {
		t.Fatal("fsync failure did not latch")
	}

	var frames []byte
	for i := 0; i < 4; i++ {
		frames = wire.AppendLocation(frames, wire.LocationUpdate{User: int64(2 + i), X: 20, Y: 20, T: 200 + int64(i)})
	}
	frames, err = wire.AppendServiceCall(frames, wire.ServiceCall{User: 2, X: 20, Y: 20, T: 300, Service: "nav"})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := wire.AppendBatch(nil, 5, frames)
	if err != nil {
		t.Fatal(err)
	}
	wantRefused(postBatch(t, hts.URL, batch, ""), "/v1/batch")
	if got := srv.Counters.Get("requests"); got != 0 {
		t.Fatalf("the service call after the failed run was served (%d requests)", got)
	}

	found := false
	for _, reason := range getHealth(t, hts.URL).Degraded {
		found = found || reason == "storage_wal_failed"
	}
	if !found {
		t.Fatal("/healthz no longer reports storage_wal_failed")
	}
}

// A server without a tiered store must keep /healthz free of the
// storage section.
func TestHealthzNoStorageSection(t *testing.T) {
	hts, _, _ := newTestServer(t)
	if hr := getHealth(t, hts.URL); hr.Storage != nil {
		t.Fatalf("unexpected storage section: %+v", hr.Storage)
	}
}

// TestBatchGroupCommitPerRun pins one group commit per run of location
// frames: a 512-frame /v1/batch on a tiered store at SyncBatch is 512
// WAL records, one fsync, and the same WAL bytes as 512 single-record
// appends of the same updates (which fsync once each).
func TestBatchGroupCommitPerRun(t *testing.T) {
	open := func() *storage.TieredStore {
		st, _, err := storage.Open(storage.Options{Dir: "store", FS: storage.NewMemFS(), Sync: storage.SyncBatch})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	st := open()
	hts := httptest.NewServer(New(ts.New(ts.Config{Store: st}, sp.NewProvider())))
	t.Cleanup(hts.Close)

	const n = 512
	rng := rand.New(rand.NewSource(1))
	locs := make([]wire.LocationUpdate, n)
	var frames []byte
	for i := range locs {
		locs[i] = wire.LocationUpdate{
			User: int64(rng.Intn(64)), X: rng.Float64() * 4000, Y: rng.Float64() * 4000, T: 7*tgran.Hour + int64(i),
		}
		if i%2 == 0 {
			locs[i].X, locs[i].Y = float64(rng.Intn(4000)), float64(rng.Intn(4000)) // fixed-point coordinates
		}
		frames = wire.AppendLocation(frames, locs[i])
	}
	batch, err := wire.AppendBatch(nil, n, frames)
	if err != nil {
		t.Fatal(err)
	}
	before := st.Stats()
	resp := postBatch(t, hts.URL, batch, "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	after := st.Stats()
	if got := after.WALFsyncs - before.WALFsyncs; got != 1 {
		t.Errorf("WAL fsyncs for one batch: %d, want 1", got)
	}
	if got := after.WALAppends - before.WALAppends; got != n {
		t.Errorf("WAL records for one batch: %d, want %d", got, n)
	}
	if got := st.NumSamples(); got != n {
		t.Errorf("store holds %d samples, want %d", got, n)
	}

	ref := open()
	for _, l := range locs {
		ref.Record(phl.UserID(l.User), l.Point())
	}
	want := ref.Stats()
	if got := after.WALBytes - before.WALBytes; got != want.WALBytes {
		t.Errorf("WAL bytes for one batch: %d, want %d as per-record appends write", got, want.WALBytes)
	}
	if want.WALFsyncs != n {
		t.Errorf("per-record appends fsynced %d times, want %d", want.WALFsyncs, n)
	}
}
