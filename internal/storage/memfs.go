package storage

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
)

// MemFS is an in-memory FS with crash semantics: every write lands in a
// pending view, and only Sync (for file contents) and SyncDir (for the
// directory namespace: creates, renames, removes) promote pending state
// to the durable view. Crash discards everything not yet promoted —
// optionally tearing the unsynced tail of a file mid-write and
// corrupting the last surviving byte, which models torn sector writes.
//
// It backs the crash-recovery chaos schedules: a workload runs against
// a TieredStore on a MemFS, the test calls Crash, reopens the store on
// the surviving state, and checks that no acknowledged update was lost.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	// dirs maps directory → the set of names durably linked in it.
	// Names present in files but not here vanish on Crash.
	dirs map[string]map[string]bool
	// TornWriter, when non-nil, decides how many of the n unsynced
	// bytes of a crashing file survive and whether the last surviving
	// byte is corrupted. The default keeps none.
	TornWriter func(path string, unsynced int) (keep int, corrupt bool)
	// FailWrites / FailSyncs / FailReads, when non-nil, make the
	// matching operations return that error — sticky fault injection
	// for fail-stop tests. Set them only while no operation is in
	// flight.
	FailWrites error
	FailSyncs  error
	FailReads  error
	// OpHook, when non-nil, runs at the start of every write, sync and
	// read-at; a non-nil return fails that operation. The chaos
	// schedules use it to fail the Nth disk touch of a run.
	OpHook func(op, path string) error
}

// hook consults OpHook and the per-kind sticky error; caller holds mu.
func (m *MemFS) hook(op, path string, sticky error) error {
	if m.OpHook != nil {
		if err := m.OpHook(op, path); err != nil {
			return err
		}
	}
	return sticky
}

type memFile struct {
	fs     *MemFS
	path   string
	data   []byte
	synced int // bytes of data known durable
	closed bool
	ronly  bool
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile), dirs: make(map[string]map[string]bool)}
}

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{fs: m, path: name}
	m.files[name] = f
	return f, nil
}

// Open implements FS.
func (m *MemFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("memfs: open %s: no such file", name)
	}
	return &memFile{fs: m, path: name, data: f.data, synced: f.synced, ronly: true}, nil
}

// Rename implements FS.
func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("memfs: rename %s: no such file", oldname)
	}
	delete(m.files, oldname)
	f.path = newname
	m.files[newname] = f
	return nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("memfs: remove %s: no such file", name)
	}
	delete(m.files, name)
	return nil
}

// ReadDir implements FS.
func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for path := range m.files {
		if filepath.Dir(path) == dir {
			names = append(names, filepath.Base(path))
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll implements FS.
func (m *MemFS) MkdirAll(dir string) error { return nil }

// SyncDir implements FS: the current namespace of dir (which names
// exist, after creates/renames/removes) becomes durable.
func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	durable := make(map[string]bool)
	for path := range m.files {
		if filepath.Dir(path) == dir {
			durable[filepath.Base(path)] = true
		}
	}
	m.dirs[dir] = durable
	return nil
}

// Crash simulates a power failure: unsynced file bytes are dropped
// (except a torn prefix chosen by TornWriter), and directory entries
// never made durable by SyncDir disappear. The MemFS remains usable —
// recovery code opens the surviving state in place.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for path, f := range m.files {
		if unsynced := len(f.data) - f.synced; unsynced > 0 {
			keep, corrupt := 0, false
			if m.TornWriter != nil {
				keep, corrupt = m.TornWriter(path, unsynced)
			}
			if keep > unsynced {
				keep = unsynced
			}
			f.data = f.data[:f.synced+keep]
			if corrupt && len(f.data) > f.synced {
				f.data[len(f.data)-1] ^= 0x80
			}
			f.synced = len(f.data)
		}
	}
	for path := range m.files {
		dir := filepath.Dir(path)
		durable, ok := m.dirs[dir]
		if !ok || !durable[filepath.Base(path)] {
			delete(m.files, path)
		}
	}
	// Durable names whose file object was replaced but not re-synced
	// keep their old content in real filesystems; modeling that
	// faithfully would need content snapshots per SyncDir. The WAL and
	// snapshot writers never reuse names, so "vanish" is the only
	// behavior renames need: a crash between Rename and SyncDir loses
	// the new name, which is exactly the bug class the parent-dir
	// fsync fix closes.
}

// Corrupt flips one bit at the given offset of the named file, for
// corrupt-tail recovery tests.
func (m *MemFS) Corrupt(name string, offset int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return fmt.Errorf("memfs: corrupt %s: no such file", name)
	}
	if offset < 0 {
		offset += int64(len(f.data))
	}
	if offset < 0 || offset >= int64(len(f.data)) {
		return fmt.Errorf("memfs: corrupt %s: offset %d out of range", name, offset)
	}
	f.data[offset] ^= 0x40
	return nil
}

// Truncate cuts the named file to n bytes, for truncated-tail tests.
func (m *MemFS) Truncate(name string, n int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return fmt.Errorf("memfs: truncate %s: no such file", name)
	}
	if n < 0 || n > int64(len(f.data)) {
		return fmt.Errorf("memfs: truncate %s: bad length %d", name, n)
	}
	f.data = f.data[:n]
	if f.synced > int(n) {
		f.synced = int(n)
	}
	return nil
}

// Files returns the paths currently visible, sorted.
func (m *MemFS) Files() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for path := range m.files {
		out = append(out, path)
	}
	sort.Strings(out)
	return out
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed || f.ronly {
		return 0, fmt.Errorf("memfs: write %s: file closed or read-only", f.path)
	}
	if err := f.fs.hook("write", f.path, f.fs.FailWrites); err != nil {
		return 0, err
	}
	f.data = append(f.data, p...)
	return len(p), nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.fs.hook("read", f.path, f.fs.FailReads); err != nil {
		return 0, err
	}
	// Read through to the live file object: a read-only handle opened
	// before a writer appended more data still sees the current
	// content, like a POSIX file description on the same inode.
	data := f.data
	if live, ok := f.fs.files[f.path]; ok {
		data = live.data
	}
	if off < 0 || off > int64(len(data)) {
		return 0, fmt.Errorf("memfs: read %s at %d: out of range", f.path, off)
	}
	n := copy(p, data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return fmt.Errorf("memfs: sync %s: file closed", f.path)
	}
	if err := f.fs.hook("sync", f.path, f.fs.FailSyncs); err != nil {
		return err
	}
	f.synced = len(f.data)
	return nil
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.closed = true
	return nil
}

func (f *memFile) Size() (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	data := f.data
	if live, ok := f.fs.files[f.path]; ok {
		data = live.data
	}
	return int64(len(data)), nil
}

var _ FS = (*MemFS)(nil)
