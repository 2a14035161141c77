// Crash-recovery chaos: seeded kill-at-any-record schedules for the
// durable tiered PHL store. Each schedule drives a trusted server on a
// TieredStore over a crash-simulating MemFS, kills the "machine" at a
// seed-chosen operation (tearing and corrupting the unsynced tail),
// recovers, and proves:
//
//  1. Zero acked-update loss — every location update whose Record call
//     returned with the store healthy is present after recovery, under
//     the batch fsync policy.
//  2. Recovery idempotence — recovering the same surviving state twice
//     yields byte-identical histories.
//  3. Historical k-anonymity across the crash — requests served by the
//     recovered instance still achieve HistoricalLevel ≥ k, verified
//     against the recovered PHL itself.
//  4. Pseudonym hygiene — within each server instance, no pseudonym
//     ever maps to two users.
//
// TestStorageCrashSchedulesBatched repeats the schedules with location
// updates sent through RecordLocations in seeded runs, one WAL write and
// one group commit per run, on 512-byte segments so that runs cross the
// rotation threshold; a run counts as acknowledged once the call returns
// with the store healthy.
//
// Every schedule is a pure function of its seed; a failure replays
// with -run 'TestStorageCrashSchedules/seed=N' (or
// 'TestStorageCrashSchedulesBatched/seed=N').
package chaos_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"histanon/internal/anon"
	"histanon/internal/geo"
	"histanon/internal/phl"
	"histanon/internal/storage"
	"histanon/internal/ts"
	"histanon/internal/wire"
)

// crashSchedule is one seeded crash configuration.
type crashSchedule struct {
	seed       uint64
	sync       storage.SyncPolicy
	snapEvery  int
	hotWindow  int64
	segBytes   int64
	users      int
	ops        int
	killAt     int  // crash after this many operations
	concurrent bool // drive records from several goroutines
	corruptTip bool // the torn tail's last byte is corrupted
}

func mkCrashSchedule(seed uint64) crashSchedule {
	rng := rand.New(rand.NewSource(int64(seed)))
	s := crashSchedule{
		seed:       seed,
		sync:       []storage.SyncPolicy{storage.SyncBatch, storage.SyncBatch, storage.SyncBatch, storage.SyncNone}[seed%4],
		snapEvery:  []int{16, 48, 128}[seed%3],
		hotWindow:  []int64{30, 120, 1 << 40}[seed%3],
		segBytes:   []int64{512, 4096, 1 << 20}[(seed/3)%3],
		users:      5 + rng.Intn(20),
		ops:        200 + rng.Intn(800),
		concurrent: seed%5 == 3,
		corruptTip: seed%2 == 0,
	}
	s.killAt = 1 + rng.Intn(s.ops)
	return s
}

func (sc crashSchedule) options(fsys storage.FS) storage.Options {
	return storage.Options{
		Dir:              "store",
		FS:               fsys,
		Sync:             sc.sync,
		SegmentBytes:     sc.segBytes,
		SnapshotEvery:    sc.snapEvery,
		HotWindow:        sc.hotWindow,
		MaxDeltas:        3,
		ColdCacheEntries: 8,
	}
}

// ackedSet tracks acknowledged updates (Record returned, store healthy).
type ackedSet struct {
	mu      sync.Mutex
	samples map[phl.UserID][]geo.STPoint
	count   int
}

func newAckedSet() *ackedSet {
	return &ackedSet{samples: make(map[phl.UserID][]geo.STPoint)}
}

func (a *ackedSet) add(u phl.UserID, p geo.STPoint) {
	a.mu.Lock()
	a.samples[u] = append(a.samples[u], p)
	a.count++
	a.mu.Unlock()
}

// missingFrom returns the first acked sample the store lost, if any.
func (a *ackedSet) missingFrom(st phl.Storer) (phl.UserID, geo.STPoint, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for u, pts := range a.samples {
		h := st.History(u)
		have := make(map[geo.STPoint]int)
		if h != nil {
			for _, p := range h.Points() {
				have[p]++
			}
		}
		for _, p := range pts {
			if have[p] == 0 {
				return u, p, true
			}
			have[p]--
		}
	}
	return 0, geo.STPoint{}, false
}

// crashPoint generates the deterministic i-th sample of a schedule.
func crashPoint(rng *rand.Rand, t *int64) geo.STPoint {
	*t += int64(rng.Intn(5))
	return geo.STPoint{
		P: geo.Point{X: rng.Float64() * 2e3, Y: rng.Float64() * 2e3},
		T: *t,
	}
}

// fingerprintStore renders every user history into a comparable string.
func fingerprintStore(st phl.Storer) string {
	var out []byte
	for _, u := range st.Users() {
		out = fmt.Appendf(out, "u%d:", u)
		for _, p := range st.History(u).Points() {
			out = fmt.Appendf(out, "(%x,%x,%d)", p.P.X, p.P.Y, p.T)
		}
		out = append(out, '\n')
	}
	return string(out)
}

func TestStorageCrashSchedules(t *testing.T) {
	const seeds = 72
	for seed := uint64(0); seed < seeds; seed++ {
		sc := mkCrashSchedule(seed)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runCrashSchedule(t, sc, (*crashRig).perRecord)
		})
	}
}

func TestStorageCrashSchedulesBatched(t *testing.T) {
	const seeds = 144
	for seed := uint64(0); seed < seeds; seed++ {
		sc := mkCrashSchedule(seed)
		sc.segBytes = 512
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runCrashSchedule(t, sc, (*crashRig).runs)
		})
	}
}

// crashRig is one schedule's server, store and the bookkeeping its
// traffic feeds the invariants with.
type crashRig struct {
	sc             crashSchedule
	srv            *ts.Server
	st             *storage.TieredStore
	acked          *ackedSet
	checkPseudonym func(ts.Decision, phl.UserID)
}

// ack tracks updates as acknowledged: the call that recorded them has
// returned with the store healthy, under a policy that fsyncs.
func (d *crashRig) ack(samples ...phl.Sample) {
	if d.st.StorageFailed() || d.sc.sync == storage.SyncNone {
		return
	}
	for _, x := range samples {
		d.acked.add(x.User, x.Point)
	}
}

// perRecord drives ops operations, one update per call: every fifth is
// a service request (which also records the location), the rest are
// plain location updates.
func (d *crashRig) perRecord(rng *rand.Rand, ops int) {
	tm := int64(0)
	for i := 0; i < ops; i++ {
		u := phl.UserID(rng.Intn(d.sc.users))
		p := crashPoint(rng, &tm)
		if i%5 == 4 {
			d.checkPseudonym(d.srv.Request(u, p, "svc", nil), u)
		} else {
			d.srv.RecordLocation(u, p)
		}
		d.ack(phl.Sample{User: u, Point: p})
	}
}

// runs drives ops operations in steps: a service request (one step in
// five) or a run of 1–64 location updates through RecordLocations,
// each update one operation. A run is acknowledged as a whole.
func (d *crashRig) runs(rng *rand.Rand, ops int) {
	tm := int64(0)
	for done := 0; done < ops; {
		if rng.Intn(5) == 0 {
			u := phl.UserID(rng.Intn(d.sc.users))
			p := crashPoint(rng, &tm)
			d.checkPseudonym(d.srv.Request(u, p, "svc", nil), u)
			d.ack(phl.Sample{User: u, Point: p})
			done++
			continue
		}
		run := make([]phl.Sample, min(1+rng.Intn(64), ops-done))
		for i := range run {
			run[i] = phl.Sample{User: phl.UserID(rng.Intn(d.sc.users)), Point: crashPoint(rng, &tm)}
		}
		d.srv.RecordLocations(run)
		d.ack(run...)
		done += len(run)
	}
}

func runCrashSchedule(t *testing.T, sc crashSchedule, drive func(d *crashRig, rng *rand.Rand, ops int)) {
	fsys := storage.NewMemFS()
	st, _, err := storage.Open(sc.options(fsys))
	if err != nil {
		t.Fatalf("initial open: %v", err)
	}
	srv := ts.New(ts.Config{DefaultPolicy: ts.Policy{K: 2}, Store: st},
		ts.OutboxFunc(func(*wire.Request) {}))

	acked := newAckedSet()
	pseudonyms := make(map[wire.Pseudonym]phl.UserID)
	var pseudoMu sync.Mutex
	checkPseudonym := func(dec ts.Decision, u phl.UserID) {
		if dec.Request == nil {
			return
		}
		pseudoMu.Lock()
		defer pseudoMu.Unlock()
		if owner, seen := pseudonyms[dec.Request.Pseudonym]; seen && owner != u {
			t.Errorf("pseudonym %v reused across users %d and %d", dec.Request.Pseudonym, owner, u)
		}
		pseudonyms[dec.Request.Pseudonym] = u
	}

	d := &crashRig{sc: sc, srv: srv, st: st, acked: acked, checkPseudonym: checkPseudonym}
	// Drive killAt operations.
	if sc.concurrent {
		// Concurrent writers: each drives its own deterministic stream;
		// ack tracking happens after Record returns, so every tracked
		// sample was acknowledged before the crash.
		var wg sync.WaitGroup
		workers := 4
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(sc.seed)*100 + int64(w)))
				drive(d, rng, sc.killAt/workers)
			}(w)
		}
		wg.Wait()
	} else {
		rng := rand.New(rand.NewSource(int64(sc.seed) * 100))
		drive(d, rng, sc.killAt)
	}

	// Kill the machine: unsynced bytes tear (keeping a seeded prefix,
	// optionally corrupting the final surviving byte), undurable
	// directory entries vanish.
	tornRng := rand.New(rand.NewSource(int64(sc.seed) + 7))
	fsys.TornWriter = func(path string, unsynced int) (int, bool) {
		return tornRng.Intn(unsynced + 1), sc.corruptTip
	}
	fsys.Crash()
	fsys.TornWriter = nil

	// Recovery must succeed: a crash leaves torn tails, never the kind
	// of interior damage recovery refuses.
	st2, info, err := storage.Open(sc.options(fsys))
	if err != nil {
		t.Fatalf("recovery refused after crash: %v", err)
	}

	// Invariant 1: zero acked-update loss.
	if u, p, lost := acked.missingFrom(st2); lost {
		t.Fatalf("acked update lost: user %d sample %+v (recovery %+v)", u, p, info)
	}

	// Invariant 2: recovery idempotence. Close the first recovered
	// instance (its checkpoint may compact), then two further
	// recoveries from the resulting state must agree exactly.
	fp1 := fingerprintStore(st2)
	if err := st2.Close(); err != nil {
		t.Fatalf("close after recovery: %v", err)
	}
	st3, _, err := storage.Open(sc.options(fsys))
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	if fp3 := fingerprintStore(st3); fp3 != fp1 {
		t.Fatalf("recovery not idempotent:\nfirst:\n%s\nsecond:\n%s", fp1, fp3)
	}

	// Invariant 3: historical k-anonymity on the recovered instance.
	// Serve requests from a fresh server on the recovered store; every
	// forwarded generalized context must achieve HistoricalLevel ≥ k
	// against the recovered PHL.
	const k = 2
	srv2 := ts.New(ts.Config{DefaultPolicy: ts.Policy{K: k}, Store: st3},
		ts.OutboxFunc(func(*wire.Request) {}))
	rng := rand.New(rand.NewSource(int64(sc.seed) + 13))
	tm := int64(1 << 20)
	pseudonyms2 := make(map[wire.Pseudonym]phl.UserID)
	for i := 0; i < 40; i++ {
		u := phl.UserID(rng.Intn(sc.users))
		p := crashPoint(rng, &tm)
		dec := srv2.Request(u, p, "svc", nil)
		if dec.Request != nil {
			if owner, seen := pseudonyms2[dec.Request.Pseudonym]; seen && owner != u {
				t.Fatalf("post-recovery pseudonym %v reused across users %d and %d",
					dec.Request.Pseudonym, owner, u)
			}
			pseudonyms2[dec.Request.Pseudonym] = u
		}
		if dec.Forwarded && dec.Generalized && dec.HKAnonymity {
			boxes := []geo.STBox{dec.Request.Context}
			if lvl := anon.HistoricalLevel(st3, u, boxes); lvl < k {
				t.Fatalf("forwarded context achieves HistoricalLevel %d < %d after recovery", lvl, k)
			}
		}
	}
	if err := st3.Close(); err != nil {
		t.Fatalf("final close: %v", err)
	}
}

// A crash immediately after Open (empty store) must recover to an
// empty, healthy store.
func TestStorageCrashAtBirth(t *testing.T) {
	fsys := storage.NewMemFS()
	st, _, err := storage.Open(storage.Options{Dir: "store", FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	_ = st
	fsys.Crash()
	st2, info, err := storage.Open(storage.Options{Dir: "store", FS: fsys})
	if err != nil {
		t.Fatalf("recovery of empty store: %v", err)
	}
	if st2.NumSamples() != 0 || st2.NumUsers() != 0 {
		t.Fatalf("empty store recovered %d samples", st2.NumSamples())
	}
	if info.Replayed != 0 {
		t.Fatalf("empty store replayed %d records", info.Replayed)
	}
	st2.Close()
}

// Repeated crash/recover cycles with work between them: acked updates
// accumulate across generations and none is ever lost.
func TestStorageCrashGenerations(t *testing.T) {
	fsys := storage.NewMemFS()
	acked := newAckedSet()
	tm := int64(0)
	rng := rand.New(rand.NewSource(99))
	opts := storage.Options{
		Dir: "store", FS: fsys,
		SnapshotEvery: 32, HotWindow: 60, MaxDeltas: 2, ColdCacheEntries: 8,
	}
	for gen := 0; gen < 6; gen++ {
		st, _, err := storage.Open(opts)
		if err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
		if u, p, lost := acked.missingFrom(st); lost {
			t.Fatalf("generation %d lost acked update: user %d %+v", gen, u, p)
		}
		for i := 0; i < 150; i++ {
			u := phl.UserID(rng.Intn(10))
			p := crashPoint(rng, &tm)
			st.Record(u, p)
			if !st.StorageFailed() {
				acked.add(u, p)
			}
		}
		fsys.TornWriter = func(path string, unsynced int) (int, bool) {
			return rng.Intn(unsynced + 1), gen%2 == 0
		}
		fsys.Crash()
		fsys.TornWriter = nil
	}
	st, _, err := storage.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if u, p, lost := acked.missingFrom(st); lost {
		t.Fatalf("final recovery lost acked update: user %d %+v", u, p)
	}
	if acked.count == 0 {
		t.Fatal("no updates were acked; test is vacuous")
	}
	st.Close()
}
