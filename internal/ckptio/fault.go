package ckptio

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// Injected I/O fault machinery, in the seeded fault-plan style of
// simnet.FaultPlan: every decision is a pure function of (seed, op index),
// so a failing run replays bit-for-bit from its seed.  FaultFS additionally
// models *volatility* — content written but not fsynced, renames not yet
// pinned by a directory fsync — so SimulateCrash can roll the filesystem
// back to exactly what a host crash would have preserved, which is what the
// crash-consistency tests sweep over.

// Typed injected errors.  They are ordinary errors (not mpi comm panics):
// checkpoint code must degrade on them, never take the solve down.
var (
	// ErrInjected marks a seeded I/O fault (short write, EIO, fsync
	// failure).  Real-world analog: a flaky disk or filesystem.
	ErrInjected = errors.New("checkpoint: injected I/O fault")
	// ErrNoSpace marks an injected out-of-space condition.
	ErrNoSpace = errors.New("checkpoint: injected ENOSPC")
	// ErrCrashed reports that the simulated host has crashed: every
	// operation after the crash point fails.
	ErrCrashed = errors.New("checkpoint: simulated crash")
)

// FaultPlan configures seeded I/O fault injection.  The zero value injects
// nothing.
type FaultPlan struct {
	// Seed drives every pseudo-random decision.
	Seed uint64
	// ShortWrite is the probability that a WriteAt persists only a prefix
	// and fails.
	ShortWrite float64
	// WriteErr is the probability that a WriteAt fails outright (EIO)
	// without persisting anything.
	WriteErr float64
	// FsyncErr is the probability that a file or directory fsync fails.
	// Post-fsync-failure state is treated as undefined by callers: the
	// data must not be advertised as durable.
	FsyncErr float64
	// ENOSPCAfter, when positive, is the total byte budget: writes beyond
	// it fail with ErrNoSpace (persisting the prefix that fit).
	ENOSPCAfter int64
	// CrashAfterOps, when positive, crashes the simulated host after that
	// many mutating operations: volatile state is rolled back and every
	// later operation fails with ErrCrashed.  Sweeping it over an
	// operation sequence exercises every crash point, including
	// crash-between-write-and-rename.
	CrashAfterOps int
}

// Active reports whether the plan can inject anything.
func (p *FaultPlan) Active() bool {
	return p != nil && (p.ShortWrite > 0 || p.WriteErr > 0 || p.FsyncErr > 0 ||
		p.ENOSPCAfter > 0 || p.CrashAfterOps > 0)
}

// ParseFaultPlan parses a command-line fault spec of comma-separated
// key=value pairs: "short=0.2,eio=0.1,fsync=0.1,enospc=65536,crash=12,seed=7".
// Probabilities lie in [0, 1), the byte budget and the crash point are not
// negative.  An empty spec returns nil (no faults).
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	if spec == "" {
		return nil, nil
	}
	p := &FaultPlan{Seed: 1}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("checkpoint: fault spec %q: want key=value", kv)
		}
		var err error
		switch k {
		case "short":
			p.ShortWrite, err = parseProb(v)
		case "eio":
			p.WriteErr, err = parseProb(v)
		case "fsync":
			p.FsyncErr, err = parseProb(v)
		case "enospc":
			var n uint64
			n, err = strconv.ParseUint(v, 10, 63)
			p.ENOSPCAfter = int64(n)
		case "crash":
			var n uint64
			n, err = strconv.ParseUint(v, 10, 31)
			p.CrashAfterOps = int(n)
		case "seed":
			p.Seed, err = strconv.ParseUint(v, 10, 64)
		default:
			return nil, fmt.Errorf("checkpoint: fault spec: unknown key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("checkpoint: fault spec %q: %w", kv, err)
		}
	}
	return p, nil
}

// parseProb parses a fault probability, a number in [0, 1): at 1 every
// checkpoint aborts, and a run that waits for its first one never ends.
func parseProb(v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err == nil && !(p >= 0 && p < 1) { // NaN compares false
		err = fmt.Errorf("probability %v not in [0, 1)", p)
	}
	return p, err
}

// splitmix is the same finalizer simnet's fault plan uses; (seed, op) → u64.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [0, 1).
func faultUnit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// FaultFS wraps an inner FS with a seeded fault plan and volatility
// tracking.  Safe for concurrent use by the goroutine-ranks of an
// in-process world.
type FaultFS struct {
	inner FS
	plan  FaultPlan

	mu      sync.Mutex
	ops     int   // mutating operations performed
	written int64 // bytes accepted, for the ENOSPC budget
	crashed bool

	// Volatility model: durable holds each path's content as of its last
	// successful fsync (paths absent were never fsynced); dirPinned marks
	// paths whose directory entry (create or rename target) has been made
	// durable by a SyncDir.  SimulateCrash rewrites the world to durable
	// content + pinned entries.
	durable   map[string][]byte
	dirPinned map[string]bool
	touched   map[string]bool // paths with any live entry, for crash sweep
}

// NewFaultFS wraps inner with the plan (nil plan = no injection, volatility
// tracking still active so SimulateCrash works).
func NewFaultFS(inner FS, plan *FaultPlan) *FaultFS {
	f := &FaultFS{inner: inner,
		durable:   make(map[string][]byte),
		dirPinned: make(map[string]bool),
		touched:   make(map[string]bool),
	}
	if plan != nil {
		f.plan = *plan
	}
	return f
}

// Crashed reports whether the simulated host has crashed.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// step advances the op counter, firing the scheduled crash when its time
// has come.  Caller holds f.mu.  Returns an error if the host is (now) down.
func (f *FaultFS) step() error {
	if f.crashed {
		return ErrCrashed
	}
	f.ops++
	if f.plan.CrashAfterOps > 0 && f.ops > f.plan.CrashAfterOps {
		f.crashLocked()
		return ErrCrashed
	}
	return nil
}

// roll draws the op's decision variable.  Caller holds f.mu.
func (f *FaultFS) roll(kind uint64) float64 {
	return faultUnit(splitmix(f.plan.Seed ^ uint64(f.ops)*0x9e3779b97f4a7c15 ^ kind))
}

// SimulateCrash rolls the filesystem back to its durable state — fsynced
// content, directory-fsynced entries — and fails every later operation with
// ErrCrashed, exactly as if the host had lost power at this instant.
func (f *FaultFS) SimulateCrash() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashLocked()
}

func (f *FaultFS) crashLocked() {
	f.crashed = true
	for path := range f.touched {
		dur, synced := f.durable[path]
		if !synced || !f.dirPinned[path] {
			// Either the content or the directory entry was volatile:
			// the crash loses the file.  (A pinned entry with unsynced
			// content keeps the durable prefix below.)
			if !f.dirPinned[path] {
				_ = f.inner.Remove(path)
				continue
			}
		}
		// Entry pinned: content reverts to the last fsynced bytes.
		if fh, err := f.inner.OpenFile(path, os.O_WRONLY|os.O_TRUNC, 0o644); err == nil {
			if synced && len(dur) > 0 {
				_, _ = fh.WriteAt(dur, 0)
			}
			fh.Close()
		}
	}
}

// faultFile wraps a file handle with the plan's write/sync faults.
type faultFile struct {
	f    *FaultFS
	path string
	File
}

// OpenFile implements FS.  Creation counts as a mutating op; the new entry
// is volatile until the parent directory is fsynced.
func (f *FaultFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	f.mu.Lock()
	if flag&os.O_CREATE != 0 {
		if err := f.step(); err != nil {
			f.mu.Unlock()
			return nil, err
		}
		if !f.touched[path] {
			f.touched[path] = true
			f.dirPinned[path] = false
		}
	} else if f.crashed {
		f.mu.Unlock()
		return nil, ErrCrashed
	}
	f.mu.Unlock()
	fh, err := f.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, path: path, File: fh}, nil
}

// WriteAt injects EIO, short writes and the ENOSPC budget.
func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	f := ff.f
	f.mu.Lock()
	if err := f.step(); err != nil {
		f.mu.Unlock()
		return 0, err
	}
	n := len(p)
	var ierr error
	switch {
	case f.plan.WriteErr > 0 && f.roll(1) < f.plan.WriteErr:
		n, ierr = 0, fmt.Errorf("%w: EIO on %s", ErrInjected, filepath.Base(ff.path))
	case f.plan.ShortWrite > 0 && f.roll(2) < f.plan.ShortWrite:
		n, ierr = len(p)/2, fmt.Errorf("%w: short write on %s", ErrInjected, filepath.Base(ff.path))
	}
	if ierr == nil && f.plan.ENOSPCAfter > 0 && f.written+int64(n) > f.plan.ENOSPCAfter {
		if room := f.plan.ENOSPCAfter - f.written; room > 0 {
			n = int(room)
		} else {
			n = 0
		}
		ierr = ErrNoSpace
	}
	f.written += int64(n)
	f.mu.Unlock()
	if n > 0 {
		wn, werr := ff.File.WriteAt(p[:n], off)
		if werr != nil {
			return wn, werr
		}
	}
	if ierr != nil {
		return n, ierr
	}
	return len(p), nil
}

// Sync injects fsync failures and records durable content on success.
func (ff *faultFile) Sync() error {
	f := ff.f
	f.mu.Lock()
	if err := f.step(); err != nil {
		f.mu.Unlock()
		return err
	}
	if f.plan.FsyncErr > 0 && f.roll(3) < f.plan.FsyncErr {
		f.mu.Unlock()
		return fmt.Errorf("%w: fsync failed on %s", ErrInjected, filepath.Base(ff.path))
	}
	f.mu.Unlock()
	if err := ff.File.Sync(); err != nil {
		return err
	}
	// Snapshot the now-durable content for the crash model.
	data, err := f.inner.ReadFile(ff.path)
	if err == nil {
		f.mu.Lock()
		f.durable[ff.path] = append([]byte(nil), data...)
		f.mu.Unlock()
	}
	return nil
}

// ReadFile implements FS.
func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	if f.Crashed() {
		return nil, ErrCrashed
	}
	return f.inner.ReadFile(path)
}

// Rename implements FS.  The new entry is volatile until SyncDir.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	if err := f.step(); err != nil {
		f.mu.Unlock()
		return err
	}
	f.mu.Unlock()
	if err := f.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.mu.Lock()
	f.touched[newpath] = true
	f.durable[newpath] = f.durable[oldpath]
	delete(f.durable, oldpath)
	delete(f.touched, oldpath)
	f.dirPinned[newpath] = false // rename entry not durable until SyncDir
	f.mu.Unlock()
	return nil
}

// Remove implements FS.
func (f *FaultFS) Remove(path string) error {
	f.mu.Lock()
	if err := f.step(); err != nil {
		f.mu.Unlock()
		return err
	}
	delete(f.durable, path)
	delete(f.touched, path)
	delete(f.dirPinned, path)
	f.mu.Unlock()
	return f.inner.Remove(path)
}

// ReadDir implements FS.
func (f *FaultFS) ReadDir(dir string) ([]string, error) {
	if f.Crashed() {
		return nil, ErrCrashed
	}
	return f.inner.ReadDir(dir)
}

// MkdirAll implements FS.
func (f *FaultFS) MkdirAll(dir string, perm os.FileMode) error {
	if f.Crashed() {
		return ErrCrashed
	}
	return f.inner.MkdirAll(dir, perm)
}

// SyncDir injects fsync failures and pins the directory's entries on
// success: every file under dir becomes crash-safe at its last-fsynced
// content.
func (f *FaultFS) SyncDir(dir string) error {
	f.mu.Lock()
	if err := f.step(); err != nil {
		f.mu.Unlock()
		return err
	}
	if f.plan.FsyncErr > 0 && f.roll(4) < f.plan.FsyncErr {
		f.mu.Unlock()
		return fmt.Errorf("%w: fsync failed on dir %s", ErrInjected, filepath.Base(dir))
	}
	for path := range f.touched {
		if filepath.Dir(path) == dir {
			f.dirPinned[path] = true
		}
	}
	f.mu.Unlock()
	return f.inner.SyncDir(dir)
}
