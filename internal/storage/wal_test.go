package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"histanon/internal/geo"
	"histanon/internal/phl"
)

func testSample(i int) (phl.UserID, geo.STPoint) {
	return phl.UserID(i % 7), geo.STPoint{
		P: geo.Point{X: float64(i) * 1.5, Y: float64(-i) * 0.25},
		T: int64(1000 + i),
	}
}

type replayed struct {
	seq uint64
	u   phl.UserID
	p   geo.STPoint
}

func replayAll(t *testing.T, fsys FS, dir string, afterSeq uint64) ([]replayed, walReplayInfo) {
	t.Helper()
	var out []replayed
	info, err := replayWAL(fsys, dir, afterSeq, func(seq uint64, u phl.UserID, p geo.STPoint) error {
		out = append(out, replayed{seq, u, p})
		return nil
	})
	if err != nil {
		t.Fatalf("replayWAL: %v", err)
	}
	return out, info
}

func TestWALRoundTrip(t *testing.T) {
	fsys := NewMemFS()
	w, err := openWAL(fsys, "wal", SyncBatch, 1<<20, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		u, p := testSample(i)
		seq, err := w.Append(u, p)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
		if err := w.Commit(seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, info := replayAll(t, fsys, "wal", 0)
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	if info.tornTail {
		t.Fatal("clean log reported torn tail")
	}
	if info.lastSeq != n {
		t.Fatalf("lastSeq = %d, want %d", info.lastSeq, n)
	}
	for i, r := range got {
		u, p := testSample(i)
		if r.seq != uint64(i+1) || r.u != u || r.p != p {
			t.Fatalf("record %d = %+v, want seq=%d u=%d p=%+v", i, r, i+1, u, p)
		}
	}
}

// Every location update goes through WAL.Append, which frames the
// record in buffers the WAL reuses: steady-state appends allocate
// nothing, on either coordinate encoding.
func TestWriteAheadAppendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	w, err := openWAL(OSFS{}, t.TempDir(), SyncNone, 1<<30, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		u, p := testSample(i)
		if i%2 == 1 {
			p.P.X /= 3 // not fixed-point: raw IEEE bits
		}
		if _, err := w.Append(u, p); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("WAL.Append allocates %.1f/op, want 0", allocs)
	}
}

func TestWALSkipsSnapshottedPrefix(t *testing.T) {
	fsys := NewMemFS()
	w, _ := openWAL(fsys, "wal", SyncBatch, 1<<20, 0, nil)
	for i := 0; i < 10; i++ {
		u, p := testSample(i)
		seq, _ := w.Append(u, p)
		w.Commit(seq)
	}
	w.Close()
	got, info := replayAll(t, fsys, "wal", 6)
	if len(got) != 4 || info.skipped != 6 {
		t.Fatalf("replayed %d skipped %d, want 4/6", len(got), info.skipped)
	}
	if got[0].seq != 7 {
		t.Fatalf("first replayed seq = %d, want 7", got[0].seq)
	}
}

func TestWALRotationAndPrune(t *testing.T) {
	fsys := NewMemFS()
	// Tiny segments force many rotations.
	w, err := openWAL(fsys, "wal", SyncBatch, 128, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		u, p := testSample(i)
		seq, err := w.Append(u, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(seq); err != nil {
			t.Fatal(err)
		}
	}
	segsBefore := 0
	for _, name := range mustReadDir(t, fsys, "wal") {
		if _, ok := parseWALSegmentName(name); ok {
			segsBefore++
		}
	}
	if segsBefore < 3 {
		t.Fatalf("expected multiple segments, got %d", segsBefore)
	}
	got, _ := replayAll(t, fsys, "wal", 0)
	if len(got) != n {
		t.Fatalf("replayed %d, want %d", len(got), n)
	}
	// Prune through seq 150: every fully covered segment goes away and
	// replay still yields the tail without gaps.
	if err := w.Prune(150); err != nil {
		t.Fatal(err)
	}
	w.Close()
	segsAfter := 0
	for _, name := range mustReadDir(t, fsys, "wal") {
		if _, ok := parseWALSegmentName(name); ok {
			segsAfter++
		}
	}
	if segsAfter >= segsBefore {
		t.Fatalf("prune removed nothing: %d -> %d segments", segsBefore, segsAfter)
	}
	got, _ = replayAll(t, fsys, "wal", 150)
	want := 0
	for _, r := range got {
		if r.seq <= 150 {
			t.Fatalf("replay after prune returned pruned seq %d", r.seq)
		}
		want++
	}
	if got[len(got)-1].seq != n {
		t.Fatalf("last seq = %d, want %d", got[len(got)-1].seq, n)
	}
}

func mustReadDir(t *testing.T, fsys FS, dir string) []string {
	t.Helper()
	names, err := fsys.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// A crash with unsynced bytes tears the final record; replay must keep
// every synced record and report the torn tail.
func TestWALTornTailAfterCrash(t *testing.T) {
	fsys := NewMemFS()
	w, _ := openWAL(fsys, "wal", SyncBatch, 1<<20, 0, nil)
	for i := 0; i < 20; i++ {
		u, p := testSample(i)
		seq, _ := w.Append(u, p)
		if err := w.Commit(seq); err != nil {
			t.Fatal(err)
		}
	}
	// Three appends never committed, then the machine dies mid-write:
	// keep only part of the unsynced tail.
	for i := 20; i < 23; i++ {
		u, p := testSample(i)
		w.Append(u, p)
	}
	fsys.TornWriter = func(path string, unsynced int) (int, bool) {
		return unsynced / 2, false
	}
	fsys.Crash()
	got, info := replayAll(t, fsys, "wal", 0)
	if !info.tornTail {
		t.Fatal("expected torn tail after crash")
	}
	if len(got) < 20 {
		t.Fatalf("lost synced records: replayed %d, want >= 20", len(got))
	}
	for i := 0; i < 20; i++ {
		u, p := testSample(i)
		if got[i].u != u || got[i].p != p {
			t.Fatalf("synced record %d corrupted: %+v", i, got[i])
		}
	}
}

// A corrupt byte in the synced interior of a segment must refuse
// replay, not silently drop records.
func TestWALInteriorCorruptionRefuses(t *testing.T) {
	fsys := NewMemFS()
	w, _ := openWAL(fsys, "wal", SyncBatch, 1<<20, 0, nil)
	for i := 0; i < 50; i++ {
		u, p := testSample(i)
		seq, _ := w.Append(u, p)
		w.Commit(seq)
	}
	w.Close()
	// Flip a byte around the middle of the single segment.
	name := ""
	for _, n := range mustReadDir(t, fsys, "wal") {
		if _, ok := parseWALSegmentName(n); ok {
			name = n
		}
	}
	if err := fsys.Corrupt(join("wal", name), 300); err != nil {
		t.Fatal(err)
	}
	_, err := replayWAL(fsys, "wal", 0, func(uint64, phl.UserID, geo.STPoint) error { return nil })
	if err == nil {
		t.Fatal("interior corruption replayed without error")
	}
	if !strings.Contains(err.Error(), "wal segment") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// Corrupting the very last record's CRC is indistinguishable from a
// torn sector under the tail: replay tolerates it and reports it.
func TestWALFinalRecordCorruptionIsTornTail(t *testing.T) {
	fsys := NewMemFS()
	w, _ := openWAL(fsys, "wal", SyncBatch, 1<<20, 0, nil)
	for i := 0; i < 10; i++ {
		u, p := testSample(i)
		seq, _ := w.Append(u, p)
		w.Commit(seq)
	}
	w.Close()
	name := ""
	for _, n := range mustReadDir(t, fsys, "wal") {
		if _, ok := parseWALSegmentName(n); ok {
			name = n
		}
	}
	if err := fsys.Corrupt(join("wal", name), -2); err != nil {
		t.Fatal(err)
	}
	got, info := replayAll(t, fsys, "wal", 0)
	if !info.tornTail {
		t.Fatal("final-record corruption should read as a torn tail")
	}
	if len(got) != 9 {
		t.Fatalf("replayed %d records, want 9", len(got))
	}
}

// A missing segment in the middle of the sequence is a gap: refuse.
func TestWALSegmentGapRefuses(t *testing.T) {
	fsys := NewMemFS()
	w, _ := openWAL(fsys, "wal", SyncBatch, 128, 0, nil)
	for i := 0; i < 100; i++ {
		u, p := testSample(i)
		seq, _ := w.Append(u, p)
		w.Commit(seq)
	}
	w.Close()
	var segs []string
	for _, n := range mustReadDir(t, fsys, "wal") {
		if _, ok := parseWALSegmentName(n); ok {
			segs = append(segs, n)
		}
	}
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(segs))
	}
	if err := fsys.Remove(join("wal", segs[1])); err != nil {
		t.Fatal(err)
	}
	_, err := replayWAL(fsys, "wal", 0, func(uint64, phl.UserID, geo.STPoint) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("expected gap error, got %v", err)
	}
}

// After a write error the WAL is fail-stop: every later operation
// returns ErrWALFailed.
func TestWALFailStop(t *testing.T) {
	fsys := NewMemFS()
	w, _ := openWAL(fsys, "wal", SyncBatch, 1<<20, 0, nil)
	u, p := testSample(0)
	seq, err := w.Append(u, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(seq); err != nil {
		t.Fatal(err)
	}
	fsys.FailWrites = fmt.Errorf("disk full")
	if _, err := w.Append(u, p); err == nil {
		t.Fatal("append after write failure succeeded")
	}
	fsys.FailWrites = nil
	if _, err := w.Append(u, p); err == nil {
		t.Fatal("WAL not fail-stop: append after failure succeeded")
	}
	if w.Err() == nil {
		t.Fatal("Err() nil after failure")
	}
}

func TestWALSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncBatch, SyncNone} {
		fsys := NewMemFS()
		w, _ := openWAL(fsys, "wal", pol, 1<<20, 0, nil)
		for i := 0; i < 10; i++ {
			u, p := testSample(i)
			seq, err := w.Append(u, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Commit(seq); err != nil {
				t.Fatal(err)
			}
		}
		switch pol {
		case SyncNone:
			if got := w.fsyncs.Load(); got != 0 {
				t.Fatalf("%v: %d fsyncs, want 0", pol, got)
			}
		case SyncBatch:
			// Sequential appends: every commit leads its own group.
			if got := w.fsyncs.Load(); got == 0 {
				t.Fatalf("%v: no fsyncs", pol)
			}
		}
		w.Close()
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		err  bool
	}{
		{"batch", SyncBatch, false},
		{"", SyncBatch, false},
		{"always", 0, true},
		{"none", SyncNone, false},
		{"sometimes", 0, true},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if tc.err != (err != nil) || got != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if SyncBatch.String() != "batch" || SyncNone.String() != "none" {
		t.Fatal("SyncPolicy.String mismatch")
	}
}

// Concurrent appenders must all become durable and replay in sequence
// order with no loss (group commit correctness).
func TestWALConcurrentGroupCommit(t *testing.T) {
	fsys := NewMemFS()
	w, _ := openWAL(fsys, "wal", SyncBatch, 1<<20, 0, nil)
	const workers, per = 8, 50
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			for i := 0; i < per; i++ {
				u, p := testSample(g*per + i)
				seq, err := w.Append(u, p)
				if err != nil {
					errs <- err
					return
				}
				if err := w.Commit(seq); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < workers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	got, _ := replayAll(t, fsys, "wal", 0)
	if len(got) != workers*per {
		t.Fatalf("replayed %d, want %d", len(got), workers*per)
	}
	for i, r := range got {
		if r.seq != uint64(i+1) {
			t.Fatalf("sequence hole at %d: %d", i, r.seq)
		}
	}
}

func TestCodecNonMinimalVarintRejected(t *testing.T) {
	// 0x80 0x00 is a two-byte encoding of zero.
	r := sampleReader{buf: []byte{0x80, 0x00}}
	if _, err := r.uvarint(); err == nil {
		t.Fatal("non-minimal varint accepted")
	}
}

func TestCodecRoundTripExtremes(t *testing.T) {
	pts := []geo.STPoint{
		{P: geo.Point{X: 0, Y: 0}, T: 0},
		{P: geo.Point{X: 1.25, Y: -3.5}, T: -1},
		{P: geo.Point{X: 1e300, Y: -1e-300}, T: 1 << 60},
		{P: geo.Point{X: 0.1, Y: 0.3}, T: 42}, // not fixed-point exact
	}
	for _, p := range pts {
		buf := appendSample(nil, 12345, p)
		r := sampleReader{buf: buf}
		u, got, err := r.sample()
		if err != nil {
			t.Fatalf("decode %+v: %v", p, err)
		}
		if u != 12345 || got != p || r.len() != 0 {
			t.Fatalf("round trip %+v -> %+v (user %d)", p, got, u)
		}
	}
}

// TestWALAppendBatchMatchesAppend: runs written by AppendBatch replay
// as the same records, under the same sequence numbers and with the
// same record bytes, as one Append per record. Only the rotation
// points move: a run that crosses the threshold finishes its segment,
// and each committed run is one fsync.
func TestWALAppendBatchMatchesAppend(t *testing.T) {
	const n, segBytes = 300, 512
	fsA, fsB := NewMemFS(), NewMemFS()
	a, _ := openWAL(fsA, "wal", SyncBatch, segBytes, 0, nil)
	b, _ := openWAL(fsB, "wal", SyncBatch, segBytes, 0, nil)
	samples := make([]phl.Sample, n)
	for i := range samples {
		samples[i].User, samples[i].Point = testSample(i)
		if i%3 == 0 {
			samples[i].Point.P.X /= 3 // not fixed-point: raw IEEE bits
		}
	}
	for _, x := range samples {
		seq, err := a.Append(x.User, x.Point)
		if err != nil || a.Commit(seq) != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	runs := 0
	for rest := samples; len(rest) > 0; runs++ {
		k := min(1+rng.Intn(40), len(rest))
		seq, err := b.AppendBatch(rest[:k])
		if err != nil {
			t.Fatalf("AppendBatch: %v", err)
		}
		if want := uint64(n - len(rest) + k); seq != want {
			t.Fatalf("AppendBatch returned seq %d, want %d", seq, want)
		}
		fsyncs := b.fsyncs.Load()
		if err := b.Commit(seq); err != nil {
			t.Fatal(err)
		}
		if got := b.fsyncs.Load() - fsyncs; got > 1 {
			t.Fatalf("committing one run took %d fsyncs", got)
		}
		rest = rest[k:]
	}
	if a.appends.Load() != b.appends.Load() || a.bytes.Load() != b.bytes.Load() {
		t.Fatalf("records/bytes: Append %d/%d, AppendBatch %d/%d",
			a.appends.Load(), a.bytes.Load(), b.appends.Load(), b.bytes.Load())
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	ra, _ := replayAll(t, fsA, "wal", 0)
	rb, info := replayAll(t, fsB, "wal", 0)
	if !reflect.DeepEqual(ra, rb) || len(rb) != n {
		t.Fatalf("replay differs: %d records via Append, %d via AppendBatch", len(ra), len(rb))
	}
	if len(info.segments) < 2 || runs < 10 {
		t.Fatalf("%d segments, %d runs: rotation inside runs not exercised", len(info.segments), runs)
	}
}
