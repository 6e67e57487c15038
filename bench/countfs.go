package main

import (
	"sync/atomic"
	"time"

	"vectorwise/internal/fsim"
)

// countFS wraps an fsim.FS and counts what the engine writes through it:
// bytes, syncs, and the time spent inside Write and Sync. It is how the
// benchmark sees write amplification and I/O time from outside the engine.
type countFS struct {
	fsim.FS
	bytesWritten atomic.Int64
	syncs        atomic.Int64
	ioNanos      atomic.Int64
}

func (c *countFS) Create(name string) (fsim.File, error) {
	f, err := c.FS.Create(name)
	return c.wrap(f), err
}

func (c *countFS) OpenAppend(name string) (fsim.File, error) {
	f, err := c.FS.OpenAppend(name)
	return c.wrap(f), err
}

func (c *countFS) wrap(f fsim.File) fsim.File {
	if f == nil {
		return nil
	}
	return &countFile{File: f, fs: c}
}

type countFile struct {
	fsim.File
	fs *countFS
}

func (f *countFile) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := f.File.Write(p)
	f.fs.ioNanos.Add(int64(time.Since(t)))
	f.fs.bytesWritten.Add(int64(n))
	return n, err
}

func (f *countFile) Sync() error {
	t := time.Now()
	err := f.File.Sync()
	f.fs.ioNanos.Add(int64(time.Since(t)))
	f.fs.syncs.Add(1)
	return err
}
