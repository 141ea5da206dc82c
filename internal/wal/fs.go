// Package wal is the per-node durability subsystem: a group-commit
// write-ahead log of committed cycles, periodic checksummed snapshots of
// the sharded state machine, and the crash-restart recovery path that
// rebuilds a node from both. The Manager implements core.Durable, so the
// commit pipeline feeds it committed roots and fsync cadence directly
// (see internal/core/stage.go); everything is keyed to the consensus
// cycle number, the one watermark all of this shares with the protocol.
package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// FS abstracts the flat directory the subsystem writes. Live servers use
// the real disk (DirFS); deterministic simulations and fuzz tests use
// MemFS, which keeps the same crash-restart contract without touching
// the host filesystem.
type FS interface {
	// Create truncates-or-creates a file for writing.
	Create(name string) (File, error)
	// Open opens a file for reading from the start.
	Open(name string) (File, error)
	Remove(name string) error
	// Rename atomically replaces newname with oldname's content — the
	// snapshot publish step.
	Rename(oldname, newname string) error
	// List returns the directory's file names, sorted.
	List() ([]string, error)
}

// File is the slice of *os.File the subsystem needs.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync makes previous writes durable (fsync; a no-op in MemFS).
	Sync() error
}

// DirFS returns the real-disk FS rooted at dir, creating it if needed.
func DirFS(dir string) (FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return osFS{dir: dir}, nil
}

type osFS struct{ dir string }

func (fs osFS) Create(name string) (File, error) {
	return os.Create(filepath.Join(fs.dir, name))
}

func (fs osFS) Open(name string) (File, error) {
	return os.Open(filepath.Join(fs.dir, name))
}

func (fs osFS) Remove(name string) error {
	return os.Remove(filepath.Join(fs.dir, name))
}

func (fs osFS) Rename(oldname, newname string) error {
	return os.Rename(filepath.Join(fs.dir, oldname), filepath.Join(fs.dir, newname))
}

func (fs osFS) List() ([]string, error) {
	ents, err := os.ReadDir(fs.dir)
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

// MemFS is an in-memory FS. It survives across Manager open/close pairs,
// which is how the chaos harness models a node's disk across an in-sim
// crash and restart. Safe for concurrent use.
type MemFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

// NewMemFS returns an empty in-memory disk.
func NewMemFS() *MemFS { return &MemFS{files: make(map[string][]byte)} }

func (fs *MemFS) Create(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[name] = nil
	return &memFile{fs: fs, name: name, write: true}, nil
}

func (fs *MemFS) Open(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	data, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("wal: open %s: %w", name, os.ErrNotExist)
	}
	// Snapshot the content: a reader is not disturbed by later writes.
	cp := make([]byte, len(data))
	copy(cp, data)
	return &memFile{fs: fs, name: name, data: cp}, nil
}

func (fs *MemFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("wal: remove %s: %w", name, os.ErrNotExist)
	}
	delete(fs.files, name)
	return nil
}

func (fs *MemFS) Rename(oldname, newname string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	data, ok := fs.files[oldname]
	if !ok {
		return fmt.Errorf("wal: rename %s: %w", oldname, os.ErrNotExist)
	}
	fs.files[newname] = data
	delete(fs.files, oldname)
	return nil
}

func (fs *MemFS) List() ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	names := make([]string, 0, len(fs.files))
	for name := range fs.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

type memFile struct {
	fs    *MemFS
	name  string
	data  []byte // read-mode content snapshot
	off   int
	write bool
}

func (f *memFile) Read(p []byte) (int, error) {
	if f.write {
		return 0, fmt.Errorf("wal: %s opened for writing", f.name)
	}
	if f.off >= len(f.data) {
		return 0, io.EOF
	}
	n := copy(p, f.data[f.off:])
	f.off += n
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	if !f.write {
		return 0, fmt.Errorf("wal: %s opened read-only", f.name)
	}
	f.fs.mu.Lock()
	f.fs.files[f.name] = append(f.fs.files[f.name], p...)
	f.fs.mu.Unlock()
	return len(p), nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }
