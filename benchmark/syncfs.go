package main

import (
	"errors"
	"sync"
	"time"

	"canopus/internal/wal"
)

// errPowerCut is returned by every mutating call after CutPower.
var errPowerCut = errors.New("benchmark: disk frozen by simulated power cut")

// syncFS wraps a wal.FS and tracks, per file, how many bytes were written
// and how many of them a Sync has covered. Killing a process leaves what
// the operating system holds, so the durability test is instead:
// CutPower, stop the cluster, then truncate every file to its synced
// length and start again on what is left.
//
// With a clock set (traced runs only) it also times every Write and Sync.
type syncFS struct {
	inner wal.FS
	// truncate cuts the named file of the underlying store to n bytes.
	truncate func(name string, n int64) error
	// clock, when non-nil, receives the duration of every Write and Sync.
	clock *fsClock

	mu     sync.Mutex
	files  map[string]*fileLen
	frozen bool
}

type fileLen struct{ written, synced int64 }

// fsClock collects write and sync durations in microseconds.
type fsClock struct {
	mu     sync.Mutex
	writes []int32
	syncs  []int32
	bytes  int64
	spans  *spanLog
}

func newSyncFS(inner wal.FS, truncate func(string, int64) error, clock *fsClock) *syncFS {
	return &syncFS{inner: inner, truncate: truncate, clock: clock, files: make(map[string]*fileLen)}
}

func (fs *syncFS) Create(name string) (wal.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.frozen {
		return nil, errPowerCut
	}
	f, err := fs.inner.Create(name)
	if err != nil {
		return nil, err
	}
	fl := &fileLen{}
	fs.files[name] = fl
	return &syncFile{File: f, fs: fs, len: fl}, nil
}

func (fs *syncFS) Open(name string) (wal.File, error) { return fs.inner.Open(name) }

func (fs *syncFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.frozen {
		return errPowerCut
	}
	delete(fs.files, name)
	return fs.inner.Remove(name)
}

func (fs *syncFS) Rename(oldname, newname string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.frozen {
		return errPowerCut
	}
	if err := fs.inner.Rename(oldname, newname); err != nil {
		return err
	}
	if fl, ok := fs.files[oldname]; ok {
		fs.files[newname] = fl
		delete(fs.files, oldname)
	}
	return nil
}

func (fs *syncFS) List() ([]string, error) { return fs.inner.List() }

// CutPower freezes the disk: from now on every write, sync, create,
// rename and remove fails, so the synced lengths are those of this
// instant whatever the stopping cluster still tries to flush.
func (fs *syncFS) CutPower() {
	fs.mu.Lock()
	fs.frozen = true
	fs.mu.Unlock()
}

// TruncateToSynced discards, in every file written through this wrapper,
// the bytes no Sync covered, and thaws the disk for the restart. It
// returns the number of bytes discarded.
func (fs *syncFS) TruncateToSynced() (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var lost int64
	for name, fl := range fs.files {
		if fl.written > fl.synced {
			if err := fs.truncate(name, fl.synced); err != nil {
				return lost, err
			}
			lost += fl.written - fl.synced
			fl.written = fl.synced
		}
	}
	fs.frozen = false
	return lost, nil
}

type syncFile struct {
	wal.File
	fs  *syncFS
	len *fileLen
}

func (f *syncFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	frozen := f.fs.frozen
	f.fs.mu.Unlock()
	if frozen {
		return 0, errPowerCut
	}
	var start time.Time
	if f.fs.clock != nil {
		start = time.Now()
	}
	n, err := f.File.Write(p)
	if f.fs.clock != nil {
		f.fs.clock.observe(start, false, n)
	}
	f.fs.mu.Lock()
	f.len.written += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *syncFile) Sync() error {
	f.fs.mu.Lock()
	frozen := f.fs.frozen
	covered := f.len.written
	f.fs.mu.Unlock()
	if frozen {
		return errPowerCut
	}
	var start time.Time
	if f.fs.clock != nil {
		start = time.Now()
	}
	err := f.File.Sync()
	if f.fs.clock != nil {
		f.fs.clock.observe(start, true, 0)
	}
	if err != nil {
		return err
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.frozen {
		// The power went during the fsync: its outcome is unknown, so it
		// counts as not durable and the caller must not acknowledge it.
		return errPowerCut
	}
	if covered > f.len.synced {
		f.len.synced = covered
	}
	return nil
}

// reset forgets what was observed so far (the set-up's writes).
func (c *fsClock) reset() {
	c.mu.Lock()
	c.writes, c.syncs, c.bytes = nil, nil, 0
	c.mu.Unlock()
}

func (c *fsClock) observe(start time.Time, sync bool, n int) {
	end := time.Now()
	us := int32(end.Sub(start) / time.Microsecond)
	c.mu.Lock()
	if sync {
		c.syncs = append(c.syncs, us)
	} else {
		c.writes = append(c.writes, us)
		c.bytes += int64(n)
	}
	c.mu.Unlock()
	if c.spans != nil {
		name := "wal.fs_write"
		if sync {
			name = "wal.fs_sync"
		}
		c.spans.add(name, start, end, 0)
	}
}
