package lsm

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
)

// Op names one filesystem operation kind for fault injection.
type Op string

// Operation kinds observable by MemFS fault hooks.
const (
	OpCreate  Op = "create"
	OpWrite   Op = "write"
	OpSync    Op = "sync"
	OpRename  Op = "rename"
	OpRemove  Op = "remove"
	OpSyncDir Op = "syncdir"
)

// ErrCrashed is returned by every MemFS operation after a fault has
// fired (the simulated process is dead) and by operations through file
// handles that were open across a Crash (the simulated process that
// held them no longer exists).
var ErrCrashed = errors.New("lsm: filesystem crashed")

// MemFS is an in-memory FS. It is the medium of every store that has
// no data directory (kvstore opens a private one per Dir-less node, so
// those stores run this engine and not a model of it), and the rig the
// crash tests drive, for which it has power-cut semantics: bytes
// written but not yet covered by a Sync are lost on Crash, a fault hook
// can fail any single Create/Write/Sync/Rename/Remove/SyncDir call
// (after which the FS acts dead until Crash), and file handles held
// across a Crash are fenced off. Renames are atomic and durable at the
// moment they return, which models the rename-as-commit-point contract
// the engine relies on.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	gen   uint64 // bumped by Crash; stale handles are fenced
	dead  bool   // a fault fired; everything fails until Crash
	fault func(op Op, name string) error
	count map[Op]int
}

type memFile struct {
	data   []byte
	synced int // length guaranteed to survive Crash
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile), count: make(map[Op]int)}
}

// FailAt arms a one-shot fault: the nth (1-based) operation of the
// given kind fails, counting from now.
func (fs *MemFS) FailAt(op Op, nth int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	seen := 0
	fs.fault = func(o Op, name string) error {
		if o != op {
			return nil
		}
		seen++
		if seen == nth {
			return fmt.Errorf("lsm: injected fault at %s #%d (%s)", op, nth, name)
		}
		return nil
	}
}

// Crash simulates a power cut and restart: every file's unsynced tail
// is discarded, handles opened before the crash are fenced off, the
// fault hook and dead state are cleared, and the FS is ready for a
// fresh Open of the same directory.
func (fs *MemFS) Crash() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, f := range fs.files {
		f.data = f.data[:f.synced]
	}
	fs.gen++
	fs.dead = false
	fs.fault = nil
}

// check consults the fault hook and the dead flag; it must be called
// with fs.mu held.
func (fs *MemFS) check(op Op, name string) error {
	if fs.dead {
		return ErrCrashed
	}
	fs.count[op]++
	if fs.fault != nil {
		if err := fs.fault(op, name); err != nil {
			fs.dead = true
			return err
		}
	}
	return nil
}

type memHandle struct {
	fs   *MemFS
	name string
	gen  uint64
}

func (h *memHandle) file() (*memFile, error) {
	if h.gen != h.fs.gen {
		return nil, ErrCrashed
	}
	f, ok := h.fs.files[h.name]
	if !ok {
		return nil, fmt.Errorf("lsm: memfs: %s: file removed", h.name)
	}
	return f, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.fs.check(OpWrite, h.name); err != nil {
		return 0, err
	}
	f, err := h.file()
	if err != nil {
		return 0, err
	}
	f.data = append(f.data, p...)
	return len(p), nil
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f, err := h.file()
	if err != nil {
		return 0, err
	}
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.fs.check(OpSync, h.name); err != nil {
		return err
	}
	f, err := h.file()
	if err != nil {
		return err
	}
	f.synced = len(f.data)
	return nil
}

func (h *memHandle) Size() (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f, err := h.file()
	if err != nil {
		return 0, err
	}
	return int64(len(f.data)), nil
}

func (h *memHandle) Close() error { return nil }

// Create implements FS.
func (fs *MemFS) Create(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.check(OpCreate, name); err != nil {
		return nil, err
	}
	fs.files[name] = &memFile{}
	return &memHandle{fs: fs, name: name, gen: fs.gen}, nil
}

// Open implements FS.
func (fs *MemFS) Open(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.dead {
		return nil, ErrCrashed
	}
	if _, ok := fs.files[name]; !ok {
		return nil, fmt.Errorf("lsm: memfs: %s: no such file", name)
	}
	return &memHandle{fs: fs, name: name, gen: fs.gen}, nil
}

// Rename implements FS. It is atomic and immediately durable: the
// target keeps the source's synced watermark.
func (fs *MemFS) Rename(oldname, newname string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.check(OpRename, oldname); err != nil {
		return err
	}
	f, ok := fs.files[oldname]
	if !ok {
		return fmt.Errorf("lsm: memfs: rename %s: no such file", oldname)
	}
	delete(fs.files, oldname)
	fs.files[newname] = f
	return nil
}

// Remove implements FS.
func (fs *MemFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.check(OpRemove, name); err != nil {
		return err
	}
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("lsm: memfs: remove %s: no such file", name)
	}
	delete(fs.files, name)
	return nil
}

// List implements FS.
func (fs *MemFS) List(dir string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.dead {
		return nil, ErrCrashed
	}
	clean := filepath.Clean(dir)
	var names []string
	for name := range fs.files {
		if filepath.Dir(name) == clean {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll implements FS; MemFS tracks no directory entries, so it
// only validates liveness.
func (fs *MemFS) MkdirAll(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.dead {
		return ErrCrashed
	}
	return nil
}

// SyncDir implements FS. Creates and renames are already durable in
// this model, so beyond the fault point it is a no-op.
func (fs *MemFS) SyncDir(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.check(OpSyncDir, dir)
}
