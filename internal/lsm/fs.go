package lsm

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// FS is the filesystem surface the engine writes through: OSFS for a
// store with a data directory, MemFS for one without — and for the
// crash tests, whose recovery checks are real instead of best-effort
// because of MemFS's Sync/Rename fault points and power-cut semantics
// (unsynced bytes vanish).
//
// The engine's durability contract is expressed entirely in FS terms:
// a write is acknowledged only after the covering File.Sync returns,
// and a state transition (new segment set, new manifest) is committed
// only by Rename of a fully synced file.
type FS interface {
	// Create truncates-or-creates the named file for writing.
	Create(name string) (File, error)
	// Open opens the named file for reading (ReadAt).
	Open(name string) (File, error)
	// Rename atomically replaces newname with oldname's file. The
	// rename is the commit point of every multi-file state change.
	Rename(oldname, newname string) error
	// Remove deletes the named file.
	Remove(name string) error
	// List returns the file names (not paths) inside dir, sorted.
	List(dir string) ([]string, error)
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// SyncDir flushes dir's entry table, making completed Create,
	// Rename and Remove calls durable.
	SyncDir(dir string) error
}

// File is one open file: append-style writes, positional reads.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	// Sync flushes written bytes to stable storage.
	Sync() error
	// Size reports the file's current length.
	Size() (int64, error)
}

// OSFS is the FS backed by the operating system.
type OSFS struct{}

type osFile struct{ f *os.File }

func (f osFile) Write(p []byte) (int, error)             { return f.f.Write(p) }
func (f osFile) ReadAt(p []byte, off int64) (int, error) { return f.f.ReadAt(p, off) }
func (f osFile) Close() error                            { return f.f.Close() }
func (f osFile) Sync() error                             { return f.f.Sync() }
func (f osFile) Size() (int64, error) {
	st, err := f.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Create implements FS.
func (OSFS) Create(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Open implements FS.
func (OSFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Rename implements FS.
func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// List implements FS.
func (OSFS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// SyncDir implements FS: fsync the directory so renames and creates
// survive power loss.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
