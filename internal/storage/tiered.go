package storage

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"histanon/internal/geo"
	"histanon/internal/phl"
	"histanon/internal/stindex"
)

// Options configures a TieredStore.
type Options struct {
	// Dir is the storage directory (WAL segments + snapshot files).
	Dir string
	// FS overrides the backing filesystem; nil means the OS.
	FS FS
	// Sync is the WAL fsync policy (default SyncBatch group commit).
	Sync SyncPolicy
	// SegmentBytes rotates WAL segments past this size (default 64 MiB).
	SegmentBytes int64
	// SnapshotEvery runs maintenance — delta snapshot, demotion,
	// possibly compaction — every this many appended records
	// (default 65536).
	SnapshotEvery int
	// HotWindow is how many seconds of sample time stay in memory:
	// samples older than the newest sample minus HotWindow demote to
	// the cold tier at the next maintenance (default 3600).
	HotWindow int64
	// MaxDeltas compacts the snapshot chain into one full file when it
	// grows past this many files (default 8).
	MaxDeltas int
	// ColdCacheEntries caps the decoded cold-run LRU (default 1024).
	ColdCacheEntries int
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 65536
	}
	if o.HotWindow <= 0 {
		o.HotWindow = 3600
	}
	if o.MaxDeltas <= 0 {
		o.MaxDeltas = 8
	}
	if o.ColdCacheEntries <= 0 {
		o.ColdCacheEntries = 1024
	}
	return o
}

// RecoveryInfo reports what Open rebuilt.
type RecoveryInfo struct {
	// Duration is the wall time recovery took.
	Duration time.Duration
	// SnapshotFiles is the length of the live snapshot chain.
	SnapshotFiles int
	// ColdSamples and WarmSamples partition the chain's samples into
	// disk-resident and memory-reloaded.
	ColdSamples int
	WarmSamples int
	// Replayed counts WAL records applied on top of the chain;
	// SkippedWAL counts records the chain already covered.
	Replayed   int
	SkippedWAL int
	// TornTail is true when the final WAL segment ended in a torn or
	// short record, which recovery truncated away (TornBytes bytes).
	// Only unacknowledged records can be lost this way.
	TornTail  bool
	TornBytes int64
	// LastSeq is the WAL sequence recovery ended at.
	LastSeq uint64
}

// snapHandle is an open snapshot file.
type snapHandle struct {
	seq  uint64
	path string
	f    File
}

// coldRun locates one user run inside one open snapshot file.
type coldRun struct {
	file *snapHandle
	ref  runRef
}

// userTier is one user's in-memory state. The three tiers partition
// the user's samples exactly:
//
//	cold   on disk only — runs' prefixes with T < cut (all snapshotted)
//	warm   in memory and snapshotted — always T >= cut
//	fresh  in memory, not yet in any snapshot — any T
//
// The stable k-way merge (runs in chain order, then warm, then fresh)
// reproduces the exact sample order an all-hot phl.History would hold:
// within a run samples are time-sorted with arrival-order ties; across
// runs, and between runs and memory, an equal-T sample in an earlier
// source always arrived earlier (it was snapshotted earlier).
type userTier struct {
	warm  *phl.History
	fresh *phl.History
	runs  []coldRun
}

// TieredStore is the durable hot/cold PHL store: it implements both
// phl.Storer and stindex.Index, so the trusted server can use one
// object as its store and spatio-temporal index, keeping demotion
// invisible to Algorithm 1. All methods are safe for concurrent use.
type TieredStore struct {
	opts Options
	fs   FS
	wal  *WAL

	mu      sync.RWMutex
	users   map[phl.UserID]*userTier
	order   []phl.UserID
	hotIdx  *stindex.Grid
	cut     int64 // T < cut is cold; advances at maintenance
	maxT    int64
	haveT   bool
	hot     int    // warm+fresh samples
	cold    int    // disk-only samples
	freshN  int    // unsnapshotted samples (triggers maintenance)
	snapSeq uint64 // WAL watermark the snapshot chain covers
	chain   []*snapHandle
	cache   *runCache

	recovery RecoveryInfo

	snapsFull  atomic.Int64
	snapsDelta atomic.Int64
	snapErrs   atomic.Int64
	demotions  atomic.Int64
	demoted    atomic.Int64
	coldHits   atomic.Int64
	coldMisses atomic.Int64
	coldErrs   atomic.Int64
	faults     atomic.Int64
	walFailed  atomic.Bool

	coldKNNSkipped atomic.Int64
	coldKNNScanned atomic.Int64
}

var (
	_ phl.Storer    = (*TieredStore)(nil)
	_ stindex.Index = (*TieredStore)(nil)
)

// Open recovers (or initializes) a TieredStore from its directory:
// load + verify the snapshot chain, replay the WAL tail, truncate a
// torn final record, and start a fresh WAL segment. Any verification
// failure other than a torn tail refuses recovery — booting on a
// silently partial PHL would weaken every anonymity set computed over
// it.
func Open(opts Options) (*TieredStore, *RecoveryInfo, error) {
	start := time.Now()
	opts = opts.withDefaults()
	fsys := opts.FS
	if err := fsys.MkdirAll(opts.Dir); err != nil {
		return nil, nil, err
	}
	chain, paths, stale, err := loadSnapshotChain(fsys, opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	t := &TieredStore{
		opts:   opts,
		fs:     fsys,
		users:  make(map[phl.UserID]*userTier),
		hotIdx: stindex.NewGrid(stindex.ServingCell, stindex.ServingBucket),
		cut:    math.MinInt64,
		cache:  newRunCache(opts.ColdCacheEntries),
	}
	// Superseded files (older than the newest full snapshot) and
	// leftover temp files are garbage; failing to delete them is not
	// fatal, the next boot retries.
	for _, p := range stale {
		_ = fsys.Remove(p)
	}
	if len(stale) > 0 {
		_ = fsys.SyncDir(opts.Dir)
	}

	// Pass 1: catalog every run, reconstruct first-seen user order,
	// and find the newest sample time.
	for i, m := range chain {
		h := &snapHandle{seq: m.seq, path: paths[i]}
		f, err := fsys.Open(paths[i])
		if err != nil {
			return nil, nil, err
		}
		h.f = f
		t.chain = append(t.chain, h)
		for _, ref := range m.runs {
			tier := t.tier(ref.user)
			tier.runs = append(tier.runs, coldRun{file: h, ref: ref})
			t.cold += ref.count
			if !t.haveT || ref.maxT > t.maxT {
				t.maxT, t.haveT = ref.maxT, true
			}
		}
		t.snapSeq = m.seq
	}

	// Pass 2: replay the WAL tail into the fresh tier.
	info, err := replayWAL(fsys, opts.Dir, t.snapSeq, func(seq uint64, u phl.UserID, p geo.STPoint) error {
		tier := t.tier(u)
		if tier.fresh == nil {
			tier.fresh = &phl.History{}
		}
		tier.fresh.Append(p)
		t.freshN++
		t.hot++
		if !t.haveT || p.T > t.maxT {
			t.maxT, t.haveT = p.T, true
		}
		return nil
	})
	if err != nil {
		t.closeFiles()
		return nil, nil, err
	}
	if info.tornTail {
		if err := t.truncateTornTail(info); err != nil {
			t.closeFiles()
			return nil, nil, err
		}
	}

	// Pass 3: the hot window is now known; decode every run that
	// reaches into it and reload its warm suffix.
	if t.haveT {
		t.cut = t.maxT - opts.HotWindow
	}
	warmLoaded := 0
	for _, u := range t.order {
		tier := t.users[u]
		for _, run := range tier.runs {
			if run.ref.maxT < t.cut {
				continue
			}
			pts, err := t.readRun(run)
			if err != nil {
				t.closeFiles()
				return nil, nil, fmt.Errorf("storage: recovery: %v", err)
			}
			suffix := pts[sort.Search(len(pts), func(i int) bool { return pts[i].T >= t.cut }):]
			if len(suffix) == 0 {
				continue
			}
			cp := make([]geo.STPoint, len(suffix))
			copy(cp, suffix)
			if tier.warm == nil {
				tier.warm = phl.HistoryFromPoints(cp)
			} else {
				tier.warm = phl.HistoryFromPoints(mergePts(tier.warm.Points(), cp))
			}
			warmLoaded += len(cp)
			t.cold -= len(cp)
			t.hot += len(cp)
		}
	}
	t.rebuildIndexLocked()

	lastSeq := t.snapSeq
	if info.lastSeq > lastSeq {
		lastSeq = info.lastSeq
	}
	live := info.segments[:0]
	for _, first := range info.segments {
		if first <= lastSeq {
			live = append(live, first)
		}
	}
	w, err := openWAL(fsys, opts.Dir, opts.Sync, opts.SegmentBytes, lastSeq, live)
	if err != nil {
		t.closeFiles()
		return nil, nil, err
	}
	t.wal = w

	t.recovery = RecoveryInfo{
		Duration:      time.Since(start),
		SnapshotFiles: len(t.chain),
		ColdSamples:   t.cold,
		WarmSamples:   warmLoaded,
		Replayed:      info.replayed,
		SkippedWAL:    info.skipped,
		TornTail:      info.tornTail,
		TornBytes:     info.tornBytes,
		LastSeq:       lastSeq,
	}
	ri := t.recovery
	return t, &ri, nil
}

// truncateTornTail rewrites the final WAL segment without its torn
// bytes (atomically: temp + sync + rename + dir sync), so the next
// recovery does not mistake the old tear for mid-file corruption.
func (t *TieredStore) truncateTornTail(info walReplayInfo) error {
	if len(info.segments) == 0 {
		return nil
	}
	first := info.segments[len(info.segments)-1]
	path := join(t.opts.Dir, walSegmentName(first))
	f, err := t.fs.Open(path)
	if err != nil {
		return err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return err
	}
	good := size - info.tornBytes
	data := make([]byte, good)
	if good > 0 {
		if n, err := f.ReadAt(data, 0); int64(n) != good {
			f.Close()
			return fmt.Errorf("storage: short read truncating %s: %v", path, err)
		}
	}
	f.Close()
	if good < walHeaderLen {
		// Nothing but a torn header: the segment holds no records.
		if err := t.fs.Remove(path); err != nil {
			return err
		}
		return t.fs.SyncDir(t.opts.Dir)
	}
	tmp := path + ".tmp"
	nf, err := t.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := nf.Write(data); err != nil {
		nf.Close()
		return err
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		return err
	}
	if err := nf.Close(); err != nil {
		return err
	}
	if err := t.fs.Rename(tmp, path); err != nil {
		return err
	}
	return t.fs.SyncDir(t.opts.Dir)
}

// tier returns (creating if needed) the user's tier entry; caller holds
// t.mu or is single-threaded recovery.
func (t *TieredStore) tier(u phl.UserID) *userTier {
	tier, ok := t.users[u]
	if !ok {
		tier = &userTier{}
		t.users[u] = tier
		t.order = append(t.order, u)
	}
	return tier
}

func (t *TieredStore) closeFiles() {
	for _, h := range t.chain {
		if h.f != nil {
			h.f.Close()
		}
	}
}

// noteWALFailure latches the fail-stop state; the first failure also
// counts as a storage fault so in-flight requests suppress.
func (t *TieredStore) noteWALFailure() {
	if t.walFailed.CompareAndSwap(false, true) {
		t.faults.Add(1)
	}
}

// Record implements phl.Storer as a one-sample RecordBatch.
func (t *TieredStore) Record(u phl.UserID, p geo.STPoint) {
	one := [1]phl.Sample{{User: u, Point: p}}
	t.RecordBatch(one[:])
}

// RecordBatch records a run of samples: one WAL write framing them all,
// then the in-memory fresh tier, then (per the sync policy) one
// group-commit fsync covering the run. The run is acknowledged durable
// only when RecordBatch returns with the store not failed; after a WAL
// error its samples still land in memory so reads stay coherent, but
// the store reports StorageFailed and the server suppresses.
// Maintenance is checked once, after the whole run is in the tiers: it
// takes wal.LastSeq as the watermark of what the tiers hold, so it must
// never run between the WAL append and the tier append.
func (t *TieredStore) RecordBatch(samples []phl.Sample) {
	if len(samples) == 0 {
		return
	}
	t.mu.Lock()
	seq, err := t.wal.AppendBatch(samples)
	for _, x := range samples {
		tier := t.tier(x.User)
		if tier.fresh == nil {
			tier.fresh = &phl.History{}
		}
		tier.fresh.Append(x.Point)
		if !t.haveT || x.Point.T > t.maxT {
			t.maxT, t.haveT = x.Point.T, true
		}
	}
	t.freshN += len(samples)
	t.hot += len(samples)
	if err == nil && t.freshN >= t.opts.SnapshotEvery {
		t.maintainLocked()
	}
	t.mu.Unlock()
	if err != nil {
		t.noteWALFailure()
		return
	}
	if err := t.wal.Commit(seq); err != nil {
		t.noteWALFailure()
	}
}

// maintainLocked runs one maintenance cycle under t.mu: delta-snapshot
// the fresh tier, merge it into warm, advance the demotion watermark,
// drop newly cold samples from memory, rebuild the hot index, compact
// when the chain is long, and prune covered WAL segments.
func (t *TieredStore) maintainLocked() {
	upTo := t.wal.LastSeq() // every record <= upTo is in the tiers (appends happen under t.mu)
	if t.freshN > 0 {
		var runs []userRun
		for _, u := range t.order {
			tier := t.users[u]
			if tier.fresh == nil || tier.fresh.Len() == 0 {
				continue
			}
			runs = append(runs, userRun{user: u, pts: tier.fresh.Points()})
		}
		img := encodeSnapshot(snapDelta, upTo, t.snapSeq, runs)
		path, err := writeSnapshotFile(t.fs, t.opts.Dir, snapDelta, upTo, img)
		if err != nil {
			// The chain is unchanged; fresh samples stay in memory and
			// the WAL still covers them. Count it and retry at the
			// next maintenance.
			t.snapErrs.Add(1)
			return
		}
		meta, err := decodeSnapshot(img)
		if err != nil {
			// The writer produced an unreadable image: a bug, not an
			// environment fault. Fail loudly in tests, degrade in
			// production.
			t.snapErrs.Add(1)
			t.faults.Add(1)
			return
		}
		f, err := t.fs.Open(path)
		if err != nil {
			t.snapErrs.Add(1)
			t.faults.Add(1)
			return
		}
		h := &snapHandle{seq: upTo, path: path, f: f}
		t.chain = append(t.chain, h)
		for _, ref := range meta.runs {
			tier := t.users[ref.user]
			tier.runs = append(tier.runs, coldRun{file: h, ref: ref})
		}
		t.snapSeq = upTo
		t.snapsDelta.Add(1)
		// Everything in memory is now snapshotted: fold fresh into
		// warm (warm samples always arrived before the previous
		// snapshot, so warm wins ties).
		for _, u := range t.order {
			tier := t.users[u]
			if tier.fresh == nil || tier.fresh.Len() == 0 {
				continue
			}
			if tier.warm == nil || tier.warm.Len() == 0 {
				tier.warm = tier.fresh
			} else {
				tier.warm = phl.HistoryFromPoints(mergePts(tier.warm.Points(), tier.fresh.Points()))
			}
			tier.fresh = nil
		}
		t.freshN = 0
	}

	// Demote: advance the watermark and drop the now-cold prefix of
	// every warm history. Every dropped sample is in the chain (fresh
	// was folded above), so memory is the only thing released.
	if t.haveT {
		if newCut := t.maxT - t.opts.HotWindow; newCut > t.cut {
			t.cut = newCut
		}
	}
	droppedAny := false
	droppedSamples := 0
	for _, u := range t.order {
		tier := t.users[u]
		if tier.warm == nil || tier.warm.Len() == 0 {
			continue
		}
		pts := tier.warm.Points()
		idx := sort.Search(len(pts), func(i int) bool { return pts[i].T >= t.cut })
		if idx == 0 {
			continue
		}
		droppedAny = true
		droppedSamples += idx
		if idx == len(pts) {
			tier.warm = nil
		} else {
			cp := make([]geo.STPoint, len(pts)-idx)
			copy(cp, pts[idx:])
			tier.warm = phl.HistoryFromPoints(cp)
		}
	}
	if droppedSamples > 0 {
		t.hot -= droppedSamples
		t.cold += droppedSamples
		t.demotions.Add(1)
		t.demoted.Add(int64(droppedSamples))
	}
	if droppedAny {
		t.rebuildIndexLocked()
	}

	if len(t.chain) > t.opts.MaxDeltas {
		t.compactLocked()
	}
	_ = t.wal.Prune(t.snapSeq)
}

// compactLocked rewrites the whole snapshot chain as one full file and
// deletes the superseded files. Caller holds t.mu.
func (t *TieredStore) compactLocked() {
	var runs []userRun
	for _, u := range t.order {
		tier := t.users[u]
		if len(tier.runs) == 0 {
			continue
		}
		var all []geo.STPoint
		for _, run := range tier.runs {
			pts, err := t.readRunNoCache(run)
			if err != nil {
				// A compaction that cannot read its inputs must not
				// rewrite the chain; the old files stay live.
				t.snapErrs.Add(1)
				return
			}
			if all == nil {
				all = pts
			} else {
				all = mergePts(all, pts)
			}
		}
		runs = append(runs, userRun{user: u, pts: all})
	}
	img := encodeSnapshot(snapFull, t.snapSeq, 0, runs)
	path, err := writeSnapshotFile(t.fs, t.opts.Dir, snapFull, t.snapSeq, img)
	if err != nil {
		t.snapErrs.Add(1)
		return
	}
	meta, err := decodeSnapshot(img)
	if err != nil {
		t.snapErrs.Add(1)
		t.faults.Add(1)
		return
	}
	f, err := t.fs.Open(path)
	if err != nil {
		t.snapErrs.Add(1)
		t.faults.Add(1)
		return
	}
	h := &snapHandle{seq: t.snapSeq, path: path, f: f}
	old := t.chain
	t.chain = []*snapHandle{h}
	for _, u := range t.order {
		t.users[u].runs = nil
	}
	for _, ref := range meta.runs {
		tier := t.users[ref.user]
		tier.runs = append(tier.runs, coldRun{file: h, ref: ref})
	}
	for _, oh := range old {
		if oh.f != nil {
			oh.f.Close()
		}
		_ = t.fs.Remove(oh.path)
	}
	_ = t.fs.SyncDir(t.opts.Dir)
	t.cache.drop()
	t.snapsFull.Add(1)
}

// rebuildIndexLocked rebuilds the hot grid from the in-memory tiers.
// Caller holds t.mu (write), which excludes concurrent Insert readers.
func (t *TieredStore) rebuildIndexLocked() {
	idx := stindex.NewGrid(stindex.ServingCell, stindex.ServingBucket)
	for _, u := range t.order {
		tier := t.users[u]
		if tier.warm != nil {
			for _, p := range tier.warm.Points() {
				idx.Insert(u, p)
			}
		}
		if tier.fresh != nil {
			for _, p := range tier.fresh.Points() {
				idx.Insert(u, p)
			}
		}
	}
	t.hotIdx = idx
}

// Checkpoint forces a maintenance cycle (delta snapshot + demotion +
// WAL prune), so a clean shutdown recovers from snapshots alone.
func (t *TieredStore) Checkpoint() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.wal.Err(); err != nil {
		return err
	}
	t.maintainLocked()
	if n := t.snapErrs.Load(); n > 0 {
		return fmt.Errorf("storage: checkpoint: %d snapshot errors (see stats)", n)
	}
	return nil
}

// Close checkpoints and closes the WAL and snapshot files.
func (t *TieredStore) Close() error {
	err := t.Checkpoint()
	if werr := t.wal.Close(); err == nil {
		err = werr
	}
	t.mu.Lock()
	t.closeFiles()
	t.mu.Unlock()
	return err
}

// readRun returns a run's samples through the LRU cache.
func (t *TieredStore) readRun(run coldRun) ([]geo.STPoint, error) {
	key := runKey{seq: run.file.seq, user: run.ref.user}
	if pts, ok := t.cache.get(key); ok {
		t.coldHits.Add(1)
		return pts, nil
	}
	pts, err := t.readRunNoCache(run)
	if err != nil {
		return nil, err
	}
	t.coldMisses.Add(1)
	t.cache.put(key, pts)
	return pts, nil
}

// readRunNoCache reads and verifies a run from disk. Errors count as
// storage faults: the caller's query is now computed over a partial
// PHL, and the server degrades it to suppression.
func (t *TieredStore) readRunNoCache(run coldRun) ([]geo.STPoint, error) {
	buf := make([]byte, run.ref.length)
	n, err := run.file.f.ReadAt(buf, run.ref.offset)
	if int64(n) != run.ref.length {
		t.coldErrs.Add(1)
		t.faults.Add(1)
		return nil, fmt.Errorf("storage: cold read %s user %v: %v", run.file.path, run.ref.user, err)
	}
	pts, err := decodeRun(buf, run.ref)
	if err != nil {
		t.coldErrs.Add(1)
		t.faults.Add(1)
		return nil, err
	}
	return pts, nil
}

// mergePts stably merges two time-sorted sample runs; on equal T the
// left (earlier-arrived) side wins. Folding mergePts over sources in
// arrival-priority order reproduces the all-hot insertion order.
func mergePts(a, b []geo.STPoint) []geo.STPoint {
	out := make([]geo.STPoint, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].T <= b[j].T {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// coldPrefix returns the run's samples with T < cut (the part not
// duplicated by the warm tier).
func coldPrefix(pts []geo.STPoint, cut int64) []geo.STPoint {
	return pts[:sort.Search(len(pts), func(i int) bool { return pts[i].T >= cut })]
}

// History implements phl.Storer: the user's full history, cold and hot
// tiers merged into the exact all-hot sample order. When the user has
// no cold samples and only one in-memory tier, a read-only view of that
// tier is returned without copying (phl.History.View).
// On a cold read error the result silently omits the unreadable run —
// and the fault counter moves, so the server suppresses any decision
// derived from it.
func (t *TieredStore) History(u phl.UserID) *phl.History {
	t.mu.RLock()
	defer t.mu.RUnlock()
	tier, ok := t.users[u]
	if !ok {
		return nil
	}
	var coldParts [][]geo.STPoint
	for _, run := range tier.runs {
		if run.ref.minT >= t.cut {
			continue
		}
		pts, err := t.readRun(run)
		if err != nil {
			continue // fault counted; fail-closed upstream
		}
		if pre := coldPrefix(pts, t.cut); len(pre) > 0 {
			coldParts = append(coldParts, pre)
		}
	}
	if len(coldParts) == 0 {
		switch {
		case tier.warm == nil || tier.warm.Len() == 0:
			if tier.fresh == nil {
				return &phl.History{}
			}
			return tier.fresh.View()
		case tier.fresh == nil || tier.fresh.Len() == 0:
			return tier.warm.View()
		}
	}
	var merged []geo.STPoint
	for _, part := range coldParts {
		if merged == nil {
			merged = append([]geo.STPoint(nil), part...)
		} else {
			merged = mergePts(merged, part)
		}
	}
	if tier.warm != nil && tier.warm.Len() > 0 {
		if merged == nil {
			merged = append([]geo.STPoint(nil), tier.warm.Points()...)
		} else {
			merged = mergePts(merged, tier.warm.Points())
		}
	}
	if tier.fresh != nil && tier.fresh.Len() > 0 {
		if merged == nil {
			merged = append([]geo.STPoint(nil), tier.fresh.Points()...)
		} else {
			merged = mergePts(merged, tier.fresh.Points())
		}
	}
	return phl.HistoryFromPoints(merged)
}

// anyInLocked reports whether the user has a sample in the box, across
// all tiers; caller holds t.mu (read).
func (t *TieredStore) anyInLocked(tier *userTier, b geo.STBox) bool {
	if tier.fresh != nil && tier.fresh.AnyIn(b) {
		return true
	}
	if tier.warm != nil && tier.warm.AnyIn(b) {
		return true
	}
	if b.Time.Start >= t.cut {
		return false // the cold tier is entirely below the watermark
	}
	for _, run := range tier.runs {
		if run.ref.minT >= t.cut || run.ref.minT > b.Time.End {
			continue
		}
		effMax := run.ref.maxT
		if effMax >= t.cut {
			effMax = t.cut - 1
		}
		if effMax < b.Time.Start || !b.Area.Intersects(run.ref.bbox) {
			continue
		}
		pts, err := t.readRun(run)
		if err != nil {
			continue // fault counted; fail-closed upstream
		}
		if phl.HistoryFromPoints(coldPrefix(pts, t.cut)).AnyIn(b) {
			return true
		}
	}
	return false
}

// Users implements phl.Storer.
func (t *TieredStore) Users() []phl.UserID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]phl.UserID, len(t.order))
	copy(out, t.order)
	return out
}

// NumUsers implements phl.Storer.
func (t *TieredStore) NumUsers() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.order)
}

// NumSamples implements phl.Storer.
func (t *TieredStore) NumSamples() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.hot + t.cold
}

// UsersIn implements phl.Storer.
func (t *TieredStore) UsersIn(b geo.STBox) []phl.UserID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []phl.UserID
	for _, u := range t.order {
		if t.anyInLocked(t.users[u], b) {
			out = append(out, u)
		}
	}
	return out
}

// CountUsersIn implements phl.Storer.
func (t *TieredStore) CountUsersIn(b geo.STBox) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, u := range t.order {
		if t.anyInLocked(t.users[u], b) {
			n++
		}
	}
	return n
}

// LTConsistentUsers implements phl.Storer.
func (t *TieredStore) LTConsistentUsers(boxes []geo.STBox) []phl.UserID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []phl.UserID
	for _, u := range t.order {
		tier := t.users[u]
		ok := true
		for _, b := range boxes {
			if !t.anyInLocked(tier, b) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, u)
		}
	}
	return out
}

// Insert implements stindex.Index: samples enter the hot grid only
// (Record already made them durable; the cold tier serves what the
// grid no longer holds). The read lock pins the grid across a
// concurrent rebuild.
func (t *TieredStore) Insert(u phl.UserID, p geo.STPoint) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.hotIdx.Insert(u, p)
}

// InsertBatch is Insert for a run of samples, under one read lock.
func (t *TieredStore) InsertBatch(samples []phl.Sample) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.hotIdx.InsertBatch(samples)
}

// Len implements stindex.Index: all samples, hot and cold.
func (t *TieredStore) Len() int { return t.NumSamples() }

// UsersInBox implements stindex.Index.
func (t *TieredStore) UsersInBox(b geo.STBox) []phl.UserID { return t.UsersIn(b) }

// CountUsersInBox implements stindex.Index.
func (t *TieredStore) CountUsersInBox(b geo.STBox) int { return t.CountUsersIn(b) }

// coldRuledOutLocked reports whether time alone puts every cold sample
// at least kth from q, so that no cold run can pass KNearestUsers'
// per-run pruning test. Cold samples have T <= cut-1 and DistToBox is
// never below its time term, so for q.T >= cut each run lies at least
// Scale·(q.T-(cut-1)) away. It is false before the first demotion, for
// a historical query (q.T < cut), with fewer than k hot candidates
// (kth = +Inf) and when the time difference overflows. Caller holds
// t.mu (read).
func (t *TieredStore) coldRuledOutLocked(q geo.STPoint, m geo.STMetric, kth float64) bool {
	if t.cut == math.MinInt64 || q.T < t.cut {
		return false
	}
	dt := q.T - (t.cut - 1)
	return dt > 0 && float64(dt)*m.Scale() >= kth
}

// KNearestUsers implements stindex.Index: the hot grid's answer,
// augmented with cold candidates whose catalog bounding boxes the
// metric cannot rule out. Exact whenever no two candidate users sit at
// exactly equal distance (ties may swap which equal-distance witness
// is reported — the anonymity level is unaffected). A present-time
// query whose k-th hot distance time alone cannot beat skips the cold
// runs without touching them (coldRuledOutLocked).
func (t *TieredStore) KNearestUsers(q geo.STPoint, k int, m geo.STMetric, exclude map[phl.UserID]bool) []stindex.UserPoint {
	if k <= 0 {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	hot := t.hotIdx.KNearestUsers(q, k, m, exclude)
	type cand struct {
		p geo.STPoint
		d float64
	}
	cands := make(map[phl.UserID]cand, len(hot))
	// kth holds the k smallest candidate distances: its bound is a valid
	// pruning radius because the final kth distance can only be smaller.
	kth := kSmallest{k: k}
	for _, up := range hot {
		d := m.Dist(q, up.Point)
		cands[up.User] = cand{p: up.Point, d: d}
		kth.improve(math.Inf(1), d)
	}
	order := t.order
	if t.coldRuledOutLocked(q, m, kth.bound()) {
		t.coldKNNSkipped.Add(1)
		order = nil
	} else {
		t.coldKNNScanned.Add(1)
	}
	for _, u := range order {
		if exclude != nil && exclude[u] {
			continue
		}
		tier := t.users[u]
		if len(tier.runs) == 0 {
			continue
		}
		best := math.Inf(1)
		if c, ok := cands[u]; ok {
			best = c.d
		}
		for _, run := range tier.runs {
			if run.ref.minT >= t.cut {
				continue
			}
			effMax := run.ref.maxT
			if effMax >= t.cut {
				effMax = t.cut - 1
			}
			runBox := geo.STBox{Area: run.ref.bbox, Time: geo.Interval{Start: run.ref.minT, End: effMax}}
			lb := m.DistToBox(q, runBox)
			if lb >= best || lb >= kth.bound() {
				continue
			}
			pts, err := t.readRun(run)
			if err != nil {
				continue // fault counted; fail-closed upstream
			}
			pre := coldPrefix(pts, t.cut)
			if len(pre) == 0 {
				continue
			}
			if p, d, ok := phl.HistoryFromPoints(pre).Closest(q, m); ok && d < best {
				kth.improve(best, d)
				best = d
				cands[u] = cand{p: p, d: d}
			}
		}
	}
	out := make([]stindex.UserPoint, 0, len(cands))
	type scored struct {
		u phl.UserID
		c cand
	}
	all := make([]scored, 0, len(cands))
	for u, c := range cands {
		all = append(all, scored{u, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c.d != all[j].c.d {
			return all[i].c.d < all[j].c.d
		}
		return all[i].u < all[j].u
	})
	if len(all) > k {
		all = all[:k]
	}
	for _, s := range all {
		out = append(out, stindex.UserPoint{User: s.u, Point: s.c.p})
	}
	return out
}

// kSmallest keeps the k smallest of KNearestUsers' per-user candidate
// distances in ascending order, updated as candidates improve one at a
// time, so reading the k-th costs nothing.
type kSmallest struct {
	k  int
	ds []float64
}

// bound returns the k-th smallest distance, or +Inf while there are
// fewer than k candidates.
func (s *kSmallest) bound() float64 {
	if len(s.ds) < s.k {
		return math.Inf(1)
	}
	return s.ds[s.k-1]
}

// improve records that one user's distance fell from old (+Inf for a
// new candidate) to d.
func (s *kSmallest) improve(old, d float64) {
	var i int // the slot d takes before it moves to its sorted place
	switch {
	case len(s.ds) < s.k && math.IsInf(old, 1):
		s.ds = append(s.ds, d)
		i = len(s.ds) - 1
	case old <= s.bound():
		// old is among the k smallest: as a value, so at a tie any
		// copy of it will do.
		i = sort.SearchFloat64s(s.ds, old)
	case d < s.ds[s.k-1]:
		i = s.k - 1 // d displaces the largest
	default:
		return
	}
	j := sort.SearchFloat64s(s.ds[:i], d)
	copy(s.ds[j+1:i+1], s.ds[j:i])
	s.ds[j] = d
}

// StorageFaults implements ts.FaultyStorage.
func (t *TieredStore) StorageFaults() int64 { return t.faults.Load() }

// StorageFailed implements ts.FaultyStorage.
func (t *TieredStore) StorageFailed() bool { return t.walFailed.Load() }

// Recovery returns what Open rebuilt.
func (t *TieredStore) Recovery() RecoveryInfo { return t.recovery }

// Stats is a point-in-time snapshot of the store's counters, feeding
// the histanon_storage_* metric families and the /healthz storage
// section.
type Stats struct {
	WALAppends     int64
	WALFsyncs      int64
	WALBytes       int64
	WALErrors      int64
	WALLag         int64
	SnapshotsFull  int64
	SnapshotsDelta int64
	SnapshotErrors int64
	Demotions      int64
	DemotedSamples int64
	ColdHits       int64
	ColdMisses     int64
	ColdErrors     int64
	// ColdKNNSkipped counts KNN queries whose cold runs the time bound
	// ruled out; ColdKNNScanned counts those that walked every user's
	// runs.
	ColdKNNSkipped int64
	ColdKNNScanned int64
	HotSamples     int
	ColdSamples    int
	ChainFiles     int
	CacheEntries   int
	Failed         bool
}

// Stats returns current counters.
func (t *TieredStore) Stats() Stats {
	t.mu.RLock()
	hot, cold, chainLen := t.hot, t.cold, len(t.chain)
	t.mu.RUnlock()
	return Stats{
		WALAppends:     t.wal.appends.Load(),
		WALFsyncs:      t.wal.fsyncs.Load(),
		WALBytes:       t.wal.bytes.Load(),
		WALErrors:      t.wal.errs.Load(),
		WALLag:         t.wal.Lag(),
		SnapshotsFull:  t.snapsFull.Load(),
		SnapshotsDelta: t.snapsDelta.Load(),
		SnapshotErrors: t.snapErrs.Load(),
		Demotions:      t.demotions.Load(),
		DemotedSamples: t.demoted.Load(),
		ColdHits:       t.coldHits.Load(),
		ColdMisses:     t.coldMisses.Load(),
		ColdErrors:     t.coldErrs.Load(),
		ColdKNNSkipped: t.coldKNNSkipped.Load(),
		ColdKNNScanned: t.coldKNNScanned.Load(),
		HotSamples:     hot,
		ColdSamples:    cold,
		ChainFiles:     chainLen,
		CacheEntries:   t.cache.len(),
		Failed:         t.walFailed.Load(),
	}
}
