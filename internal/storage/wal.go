package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"histanon/internal/geo"
	"histanon/internal/phl"
)

// SyncPolicy selects when the WAL fsyncs.
type SyncPolicy int

const (
	// SyncBatch (the default) group-commits: an append returns once a
	// single fsync covering it — possibly issued by a concurrent
	// appender — completes. One disk flush amortizes over every record
	// written while the previous flush was in flight, and over every
	// record of a run written by one AppendBatch.
	SyncBatch SyncPolicy = iota
	// SyncNone never fsyncs from the hot path: durability is bounded
	// by the OS flush interval. Crash loses the unflushed tail.
	SyncNone
)

// ParseSyncPolicy maps the -wal-fsync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "batch", "":
		return SyncBatch, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("storage: unknown fsync policy %q (want batch or none)", s)
}

func (p SyncPolicy) String() string {
	if p == SyncNone {
		return "none"
	}
	return "batch"
}

const (
	walMagic   = "PWL1"
	walVersion = 1
	// walHeaderLen is magic(4) + version(1) + firstSeq(8) + crc(4).
	walHeaderLen = 17
	// maxWALRecord bounds one record's payload; anything larger in a
	// length prefix is corruption, mirroring wire.MaxFrameBytes.
	maxWALRecord = 1 << 16
)

// ErrWALFailed is wrapped by every operation on a failed WAL: the first
// write or sync error is fail-stop, and the store above degrades to
// audited suppression rather than acknowledging undurable updates.
var ErrWALFailed = errors.New("storage: wal failed")

// WAL is the append-only write-ahead log: CRC-framed varint records in
// size-rotated segment files. Sequence numbers start at 1 and index
// records across segments; a segment file is named by the sequence of
// its first record.
type WAL struct {
	fs  FS
	dir string

	policy   SyncPolicy
	segBytes int64 // rotation threshold

	mu      sync.Mutex
	cond    *sync.Cond
	seg     File
	segName string
	segSize int64
	segSeqs []uint64 // firstSeq of every live segment, ascending
	seq     uint64   // last assigned sequence
	synced  uint64   // last sequence known durable
	syncing bool     // a group-commit fsync is in flight
	failed  error    // sticky first error

	buf     []byte // reused: one run of framed records
	payload []byte // scratch: one record's payload

	appends atomic.Int64
	fsyncs  atomic.Int64
	bytes   atomic.Int64
	errs    atomic.Int64
}

// openWAL creates the WAL's next segment after recovery replayed
// through lastSeq and returns a WAL ready for appends.
func openWAL(fsys FS, dir string, policy SyncPolicy, segBytes int64, lastSeq uint64, live []uint64) (*WAL, error) {
	if segBytes <= 0 {
		segBytes = 64 << 20
	}
	w := &WAL{fs: fsys, dir: dir, policy: policy, segBytes: segBytes, seq: lastSeq, synced: lastSeq}
	w.cond = sync.NewCond(&w.mu)
	w.segSeqs = append(w.segSeqs, live...)
	if err := w.openSegment(lastSeq + 1); err != nil {
		return nil, err
	}
	return w, nil
}

func walSegmentName(firstSeq uint64) string { return fmt.Sprintf("wal-%016x.log", firstSeq) }

// parseWALSegmentName returns the firstSeq encoded in a segment file
// name, or ok=false for other files.
func parseWALSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	hexpart := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	if len(hexpart) != 16 {
		return 0, false
	}
	var v uint64
	for _, c := range hexpart {
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}

// openSegment creates the segment whose first record will be firstSeq;
// caller holds no lock (construction) or w.mu (rotation).
func (w *WAL) openSegment(firstSeq uint64) error {
	name := join(w.dir, walSegmentName(firstSeq))
	f, err := w.fs.Create(name)
	if err != nil {
		return err
	}
	hdr := make([]byte, 0, walHeaderLen)
	hdr = append(hdr, walMagic...)
	hdr = append(hdr, walVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, firstSeq)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc(hdr))
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	// The name must survive a crash before the records do.
	if err := w.fs.SyncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.seg = f
	w.segName = name
	w.segSize = walHeaderLen
	w.segSeqs = append(w.segSeqs, firstSeq)
	return nil
}

// fail records the sticky failure; caller holds w.mu.
func (w *WAL) fail(err error) error {
	if w.failed == nil {
		w.failed = fmt.Errorf("%w: %v", ErrWALFailed, err)
		w.errs.Add(1)
		w.cond.Broadcast()
	}
	return w.failed
}

// Append writes one record and returns its sequence number. The record
// is NOT durable until Commit(seq) returns nil.
func (w *WAL) Append(u phl.UserID, p geo.STPoint) (uint64, error) {
	one := [1]phl.Sample{{User: u, Point: p}}
	return w.AppendBatch(one[:])
}

// AppendBatch writes a run of records with one Write and returns the
// last one's sequence number. Every record is framed exactly as Append
// frames it alone. The segment rotates after the run once the run has
// taken it past the threshold, so a segment can overrun the threshold by
// up to one run. No record of the run is durable until Commit(seq)
// returns nil.
func (w *WAL) AppendBatch(samples []phl.Sample) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return 0, w.failed
	}
	w.buf = w.buf[:0]
	for _, x := range samples {
		w.payload = appendSample(w.payload[:0], x.User, x.Point)
		w.buf = binary.AppendUvarint(w.buf, uint64(len(w.payload)))
		w.buf = append(w.buf, w.payload...)
		w.buf = binary.LittleEndian.AppendUint32(w.buf, crc(w.payload))
	}
	if _, err := w.seg.Write(w.buf); err != nil {
		return 0, w.fail(err)
	}
	w.seq += uint64(len(samples))
	w.segSize += int64(len(w.buf))
	w.appends.Add(int64(len(samples)))
	w.bytes.Add(int64(len(w.buf)))
	if w.segSize >= w.segBytes {
		if err := w.rotate(); err != nil {
			return 0, w.fail(err)
		}
	}
	return w.seq, nil
}

// rotate syncs and closes the current segment and opens the next;
// caller holds w.mu.
func (w *WAL) rotate() error {
	// Wait out any in-flight group commit: it holds the old file
	// handle, and closing it underneath the fsync would race.
	for w.syncing {
		w.cond.Wait()
		if w.failed != nil {
			return w.failed
		}
	}
	if err := w.seg.Sync(); err != nil {
		return err
	}
	w.fsyncs.Add(1)
	if err := w.seg.Close(); err != nil {
		return err
	}
	w.synced = w.seq
	w.cond.Broadcast()
	return w.openSegment(w.seq + 1)
}

// Commit makes the record with the given sequence durable per the sync
// policy. Under SyncBatch, whichever appender arrives first leads a
// group commit; appenders whose record the leader's fsync covered
// return without issuing their own.
func (w *WAL) Commit(seq uint64) error {
	if w.policy == SyncNone {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.failed != nil {
			return w.failed
		}
		if w.synced >= seq {
			return nil
		}
		if !w.syncing {
			break
		}
		w.cond.Wait()
	}
	w.syncing = true
	f := w.seg
	target := w.seq
	w.mu.Unlock()
	err := f.Sync()
	w.mu.Lock()
	w.syncing = false
	if err != nil {
		w.cond.Broadcast()
		return w.fail(err)
	}
	w.fsyncs.Add(1)
	if target > w.synced {
		w.synced = target
	}
	w.cond.Broadcast()
	return nil
}

// Prune deletes segments every record of which has sequence <= upTo
// (because a durable snapshot now covers them). The active segment is
// never deleted.
func (w *WAL) Prune(upTo uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return w.failed
	}
	keep := w.segSeqs[:0]
	var firstErr error
	for i, first := range w.segSeqs {
		// Segment i covers [first, next-1]; the last entry is the
		// active segment.
		if i+1 < len(w.segSeqs) && w.segSeqs[i+1]-1 <= upTo {
			if err := w.fs.Remove(join(w.dir, walSegmentName(first))); err != nil && firstErr == nil {
				firstErr = err
			}
			continue
		}
		keep = append(keep, first)
	}
	w.segSeqs = keep
	if firstErr != nil {
		return firstErr
	}
	return w.fs.SyncDir(w.dir)
}

// LastSeq returns the last assigned sequence number.
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Lag returns how many acknowledged-pending records await an fsync.
func (w *WAL) Lag() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return int64(w.seq - w.synced)
}

// Err returns the sticky failure, if any.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed
}

// Close syncs and closes the active segment.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return w.failed
	}
	for w.syncing {
		w.cond.Wait()
		if w.failed != nil {
			return w.failed
		}
	}
	if err := w.seg.Sync(); err != nil {
		return w.fail(err)
	}
	w.fsyncs.Add(1)
	w.synced = w.seq
	if err := w.seg.Close(); err != nil {
		return w.fail(err)
	}
	return nil
}

// walReplayInfo reports what a replay saw.
type walReplayInfo struct {
	lastSeq   uint64   // last good record's sequence (0 = none)
	replayed  int      // records delivered to the callback
	skipped   int      // records at or below afterSeq (already snapshotted)
	tornTail  bool     // the final segment ended mid-record or with a bad CRC
	tornBytes int64    // bytes discarded from the final segment
	segments  []uint64 // firstSeq of every live segment, ascending
}

// replayWAL scans the directory's WAL segments in order and delivers
// every record with sequence > afterSeq to fn. A short or corrupt tail
// is tolerated only at the very end of the final segment — the one
// place a crash mid-append legitimately leaves one — and reported;
// anywhere else it is corruption and replay refuses (fail closed: a
// silent gap would weaken every anonymity set computed afterwards).
func replayWAL(fsys FS, dir string, afterSeq uint64, fn func(seq uint64, u phl.UserID, p geo.STPoint) error) (walReplayInfo, error) {
	var info walReplayInfo
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return info, err
	}
	var firsts []uint64
	for _, name := range names {
		if first, ok := parseWALSegmentName(name); ok {
			firsts = append(firsts, first)
		}
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
	info.segments = firsts
	seq := uint64(0)
	for i, first := range firsts {
		last := i == len(firsts)-1
		if seq != 0 && first != seq+1 {
			return info, fmt.Errorf("storage: wal gap: segment %s follows sequence %d", walSegmentName(first), seq)
		}
		if seq == 0 {
			// The first live segment may start anywhere at or below
			// afterSeq+1 (earlier ones were pruned); above it there
			// would be a hole after the snapshot chain.
			if first > afterSeq+1 {
				return info, fmt.Errorf("storage: wal gap: snapshots cover through %d but oldest segment starts at %d", afterSeq, first)
			}
			seq = first - 1
		}
		n, err := replaySegment(fsys, join(dir, walSegmentName(first)), first, last, &seq, afterSeq, fn, &info)
		if err != nil {
			return info, err
		}
		_ = n
	}
	info.lastSeq = seq
	return info, nil
}

// replaySegment reads one segment; lastSegment selects torn-tail
// tolerance. seq is advanced per good record.
func replaySegment(fsys FS, path string, firstSeq uint64, lastSegment bool, seq *uint64, afterSeq uint64, fn func(uint64, phl.UserID, geo.STPoint) error, info *walReplayInfo) (int, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return 0, err
	}
	data := make([]byte, size)
	if size > 0 {
		if n, err := f.ReadAt(data, 0); int64(n) != size {
			return 0, fmt.Errorf("storage: short read of %s: %v", path, err)
		}
	}
	if len(data) < walHeaderLen {
		if lastSegment {
			// A crash right after segment creation can leave a short
			// header; there are no records to lose.
			info.tornTail = true
			info.tornBytes += int64(len(data))
			return 0, nil
		}
		return 0, fmt.Errorf("storage: wal segment %s: truncated header", path)
	}
	hdr := data[:walHeaderLen]
	if string(hdr[:4]) != walMagic || hdr[4] != walVersion {
		return 0, fmt.Errorf("storage: wal segment %s: bad magic or version", path)
	}
	if binary.LittleEndian.Uint32(hdr[13:]) != crc(hdr[:13]) {
		return 0, fmt.Errorf("storage: wal segment %s: header checksum mismatch", path)
	}
	if got := binary.LittleEndian.Uint64(hdr[5:13]); got != firstSeq {
		return 0, fmt.Errorf("storage: wal segment %s: header sequence %d does not match name", path, got)
	}
	off := walHeaderLen
	count := 0
	// A bad record is a torn tail — tolerable, in the final segment
	// only — when the damage plausibly comes from one interrupted
	// append at end of file: the frame runs past EOF, or it is the very
	// last frame and its CRC fails (a torn sector under the tail).
	// Damage strictly inside the segment, with sound frames after it,
	// is corruption and replay refuses: a silent gap would weaken every
	// anonymity set computed over the recovered PHL.
	tornOrCorrupt := func(reachesEOF bool, what string) error {
		if lastSegment && reachesEOF {
			info.tornTail = true
			info.tornBytes += int64(len(data) - off)
			return nil
		}
		return fmt.Errorf("storage: wal segment %s: %s at offset %d", path, what, off)
	}
	for off < len(data) {
		plen, n := binary.Uvarint(data[off:])
		if n <= 0 || plen > maxWALRecord {
			// Unparseable length: its frame extent is unknown. More
			// trailing bytes than one maximal frame cannot be a single
			// interrupted append.
			return count, tornOrCorrupt(len(data)-off <= maxWALRecord+14, "bad record length")
		}
		start := off + n
		end := start + int(plen) + 4
		if end > len(data) {
			return count, tornOrCorrupt(true, "short record")
		}
		payload := data[start : start+int(plen)]
		if binary.LittleEndian.Uint32(data[start+int(plen):end]) != crc(payload) {
			return count, tornOrCorrupt(end == len(data), "record checksum mismatch")
		}
		r := sampleReader{buf: payload}
		u, p, err := r.sample()
		if err != nil || r.len() != 0 {
			// The checksum matched, so these bytes were durably written
			// as-is; a writer never produces an undecodable payload.
			return count, fmt.Errorf("storage: wal segment %s: undecodable record at offset %d: %v", path, off, err)
		}
		*seq++
		off = end
		count++
		if *seq <= afterSeq {
			info.skipped++
			continue
		}
		if err := fn(*seq, u, p); err != nil {
			return count, err
		}
		info.replayed++
	}
	return count, nil
}
