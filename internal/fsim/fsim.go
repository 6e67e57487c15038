// Package fsim is the file-system seam underneath the durability layer
// (internal/wal, internal/colstore persistence, the engine's manifest).
// Production code goes through the FS interface so tests can substitute
// MemFS, a deterministic in-memory file system that models the durable
// versus volatile distinction real disks have: writes land in a volatile
// image, Sync publishes them to the durable image, and Crash() discards
// everything volatile — exactly what a kill -9 does to the page cache.
// MemFS also carries failpoints (torn write at byte N, failing
// fsync, bit flips) so crash-matrix tests can cut a write at every byte
// boundary without ever forking a process.
package fsim

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// File is an open file handle. Write appends at the current position (the
// durability layer only ever writes sequentially); ReadAt serves random
// reads (recovery scans, table loads).
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.Closer
	// Sync makes all writes so far durable.
	Sync() error
	// Size returns the current file size in bytes.
	Size() (int64, error)
}

// FS is the small slice of a file system the durability layer needs.
type FS interface {
	// Create truncates-or-creates name for writing.
	Create(name string) (File, error)
	// Open opens name for reading.
	Open(name string) (File, error)
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	// Rename atomically replaces newname with oldname (both synced files;
	// the rename itself is modeled as durable, matching a journaling FS
	// rename after fsync).
	Rename(oldname, newname string) error
	// Remove deletes name (no error if absent is NOT guaranteed; callers
	// check).
	Remove(name string) error
	// Truncate cuts name to size bytes.
	Truncate(name string, size int64) error
	// ReadFile returns the full contents of name.
	ReadFile(name string) ([]byte, error)
	// List returns the file names under dir (non-recursive, sorted).
	List(dir string) ([]string, error)
	// MkdirAll creates dir and parents.
	MkdirAll(dir string) error
	// Exists reports whether name exists.
	Exists(name string) bool
}

// OS is the real file system.
var OS FS = osFS{}

type osFS struct{}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (osFS) Create(name string) (File, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) OpenAppend(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Rename(oldname, newname string) error {
	if err := os.Rename(oldname, newname); err != nil {
		return err
	}
	// Make the rename durable: fsync the containing directory.
	if d, err := os.Open(filepath.Dir(newname)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) Truncate(name string, sz int64) error { return os.Truncate(name, sz) }
func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) MkdirAll(dir string) error            { return os.MkdirAll(dir, 0o755) }

func (osFS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

func (osFS) Exists(name string) bool {
	_, err := os.Stat(name)
	return err == nil
}
