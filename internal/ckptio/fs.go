// Package ckptio is the collective checkpoint I/O layer: an MPI-IO-style
// path that makes writing a checkpoint one collective, fault-tolerant
// operation instead of a whole-file write per rank.  Each rank describes its
// ghost-free owned subdomain as a noncontiguous *file view* (the same
// flattened-plan machinery that drives the scatter hot path, applied on the
// file axis, per Thakur/Gropp/Lusk's two-phase + data-sieving design); a
// configurable set of aggregator ranks assembles contiguous file-domain
// stripes from everyone's strided contributions and issues large sequential
// writes, and the restore side reads a covering extent once and unpacks it
// through the view — data sieving — so no rank ever materializes the
// replicated O(global) natural array.
//
// Durability is explicit: every stripe carries a CRC-32, a checkpoint only
// exists once its commit record has been written fsync-then-rename, and the
// whole stack runs over an injectable FS so tests drive it through short
// writes, EIO, ENOSPC, fsync failures and simulated crashes.
package ckptio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// File is the handle surface the checkpoint layer needs: positioned reads
// and writes (aggregators write disjoint stripes of a shared file) plus an
// explicit durability barrier.
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Closer
	// Sync flushes the file's written data to stable storage.
	Sync() error
}

// FS abstracts the filesystem operations of the checkpoint path so faults
// can be injected below it (FaultFS) while production code runs on OSFS.
// All paths are plain strings; implementations decide what they mean.
type FS interface {
	// OpenFile opens path with os-style flags.
	OpenFile(path string, flag int, perm os.FileMode) (File, error)
	// ReadFile returns the full content of path.
	ReadFile(path string) ([]byte, error)
	// Rename atomically moves oldpath to newpath.
	Rename(oldpath, newpath string) error
	// Remove unlinks path.
	Remove(path string) error
	// ReadDir lists the names of dir's entries, sorted.
	ReadDir(dir string) ([]string, error)
	// MkdirAll creates dir and parents.
	MkdirAll(dir string, perm os.FileMode) error
	// SyncDir flushes dir's entry table — the barrier that makes a
	// completed rename (or unlink) durable across a host crash.
	SyncDir(dir string) error
}

// OSFS is the production FS: the operating system's filesystem.
type OSFS struct{}

type osFile struct{ *os.File }

// OpenFile implements FS.
func (OSFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// ReadFile implements FS.
func (OSFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// Rename implements FS.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OSFS) Remove(path string) error { return os.Remove(path) }

// ReadDir implements FS.
func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

// SyncDir implements FS.  Directory fsync is what commits a rename: the
// rename itself only rewrites the in-memory entry table, and a host crash
// before the directory reaches the journal can roll it back.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteFileAt writes data to f at offset off, handling the short-write
// contract of WriterAt implementations that fail partway.
func WriteFileAt(f File, data []byte, off int64) error {
	n, err := f.WriteAt(data, off)
	if err != nil {
		return err
	}
	if n != len(data) {
		return fmt.Errorf("checkpoint: short write: %d of %d bytes", n, len(data))
	}
	return nil
}

// WriteFileDurable writes data to path with full crash consistency: the
// bytes go to a temporary name, are fsynced, renamed into place, and the
// parent directory is fsynced — so after WriteFileDurable returns nil the
// file survives a host crash, and a crash at any earlier point leaves no
// partial file under the final name.
func WriteFileDurable(fs FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := WriteFileAt(f, data, 0); err != nil {
		f.Close()
		_ = fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		_ = fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	return fs.SyncDir(filepath.Dir(path))
}
