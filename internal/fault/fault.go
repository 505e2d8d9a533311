// Package fault is the filesystem seam under the durability layer
// (internal/snapshot): an interface mirroring the handful of os calls
// snapshot saves and tail-log appends perform, a zero-overhead
// passthrough used in production, and a scriptable Injector used by the
// crash-recovery torture suite and the durability-degradation fault
// matrix.
//
// The Injector supports two failure shapes:
//
//   - scripted errors — the next matching op (sync, rename, write, ...)
//     fails with a chosen error (ENOSPC, EIO, ...);
//   - crash points — from the k-th mutating op on, EVERY operation
//     fails with ErrCrashed, simulating process death mid-operation:
//     cleanup code that would roll back a partial write never runs,
//     exactly as after a real crash, so whatever bytes made it to disk
//     are what recovery must cope with. A torn crash on a write lands
//     half the buffer first, the on-disk shape of a partial page flush.
//
// The Injector also counts and logs mutating ops, so a recording run
// of a workload enumerates every crash site for exhaustive replay.
package fault

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
)

// ErrInjected is the default error returned by scripted fault rules.
var ErrInjected = errors.New("fault: injected error")

// ErrCrashed is returned by every operation after a crash point fires:
// the simulated process is dead and nothing else reaches the disk.
var ErrCrashed = errors.New("fault: crashed")

// File is the subset of *os.File the durability layer uses.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Closer
	Sync() error
	Stat() (os.FileInfo, error)
	Truncate(size int64) error
	Name() string
}

// FS is the filesystem seam: every file operation the snapshot and
// tail-log code performs, and nothing more.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Open(name string) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(name string) ([]byte, error)
	MkdirAll(path string, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Chmod(name string, mode os.FileMode) error
}

// OS is the production FS: direct passthrough to the os package. The
// zero value is ready to use.
type OS struct{}

func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (OS) Open(name string) (File, error)               { return os.Open(name) }
func (OS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (OS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (OS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error                     { return os.Remove(name) }
func (OS) Chmod(name string, mode os.FileMode) error    { return os.Chmod(name, mode) }

// Op names one filesystem operation kind, for rule matching and the
// crash-site log.
type Op string

const (
	OpOpen     Op = "open"     // OpenFile / Open
	OpCreate   Op = "create"   // CreateTemp
	OpRead     Op = "read"     // ReadFile / File.Read / File.ReadAt
	OpWrite    Op = "write"    // File.Write
	OpSync     Op = "sync"     // File.Sync
	OpClose    Op = "close"    // File.Close
	OpTruncate Op = "truncate" // File.Truncate
	OpRename   Op = "rename"   // Rename
	OpRemove   Op = "remove"   // Remove
	OpChmod    Op = "chmod"    // Chmod
	OpMkdir    Op = "mkdir"    // MkdirAll
)

// mutating reports whether the op can change on-disk state — these are
// the crash sites the torture suite enumerates. Opening with O_CREATE
// counts (it can create the file); plain Open and reads do not.
func mutating(op Op) bool {
	switch op {
	case OpWrite, OpSync, OpTruncate, OpRename, OpRemove, OpChmod, OpMkdir, OpCreate, OpOpen:
		return true
	}
	return false
}

// OpRecord is one mutating operation seen by an Injector.
type OpRecord struct {
	Op   Op
	Path string
}

// rule is one scripted one-shot fault. Matching is by op kind and a
// path substring ("" matches every path).
type rule struct {
	op    Op
	path  string
	err   error
	fired bool
}

// Injector wraps a base FS and injects scripted faults and crash
// points. All methods are safe for concurrent use.
type Injector struct {
	base FS

	mu      sync.Mutex
	rules   []*rule
	log     []OpRecord
	crashAt int  // mutating-op index that triggers the crash; -1 = disarmed
	tornCr  bool // crash mid-write: land half the buffer first
	crashed bool
}

// NewInjector returns an Injector over base (fault.OS{} when nil) with
// no faults armed: it is a transparent, counting passthrough.
func NewInjector(base FS) *Injector {
	if base == nil {
		base = OS{}
	}
	return &Injector{base: base, crashAt: -1}
}

// FailOnce arms a one-shot fault: the first op of the given kind whose
// path contains pathSubstr fails with err (ErrInjected when err is nil).
func (i *Injector) FailOnce(op Op, pathSubstr string, err error) {
	if err == nil {
		err = ErrInjected
	}
	i.mu.Lock()
	i.rules = append(i.rules, &rule{op: op, path: pathSubstr, err: err})
	i.mu.Unlock()
}

// CrashAt arms a crash point: the n-th mutating op (0-based, counted
// across the Injector's lifetime) fails with ErrCrashed before touching
// the disk, and every operation after it — reads included — fails too.
// With torn set and the op a write, half the buffer lands first: the
// torn-page shape of a crash mid-flush.
func (i *Injector) CrashAt(n int, torn bool) {
	i.mu.Lock()
	i.crashAt = n
	i.tornCr = torn
	i.mu.Unlock()
}

// Crashed reports whether the armed crash point has fired.
func (i *Injector) Crashed() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.crashed
}

// Ops returns how many mutating ops the Injector has seen.
func (i *Injector) Ops() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return len(i.log)
}

// Log returns a copy of the mutating-op record, in order: the crash-site
// enumeration a recording run hands to the torture loop.
func (i *Injector) Log() []OpRecord {
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make([]OpRecord, len(i.log))
	copy(out, i.log)
	return out
}

// enter gates one operation. It returns (tornBytes, err): err non-nil
// fails the op; tornBytes >= 0 on a write means "land that many bytes,
// then fail with err".
func (i *Injector) enter(op Op, path string, writeLen int) (int, error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.crashed {
		return -1, ErrCrashed
	}
	if mutating(op) {
		n := len(i.log)
		i.log = append(i.log, OpRecord{Op: op, Path: path})
		if n == i.crashAt {
			i.crashed = true
			if i.tornCr && op == OpWrite && writeLen > 1 {
				return writeLen / 2, ErrCrashed
			}
			return -1, ErrCrashed
		}
	}
	for _, r := range i.rules {
		if r.fired || r.op != op || !strings.Contains(path, r.path) {
			continue
		}
		r.fired = true
		return -1, r.err
	}
	return -1, nil
}

func (i *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if _, err := i.enter(OpOpen, name, 0); err != nil {
		return nil, &os.PathError{Op: "open", Path: name, Err: err}
	}
	f, err := i.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{f: f, inj: i, path: name}, nil
}

func (i *Injector) Open(name string) (File, error) {
	// Plain Open is read-only: not a crash site, but dead after a crash.
	if _, err := i.enter(OpRead, name, 0); err != nil {
		return nil, &os.PathError{Op: "open", Path: name, Err: err}
	}
	f, err := i.base.Open(name)
	if err != nil {
		return nil, err
	}
	return &injFile{f: f, inj: i, path: name}, nil
}

func (i *Injector) CreateTemp(dir, pattern string) (File, error) {
	if _, err := i.enter(OpCreate, dir+"/"+pattern, 0); err != nil {
		return nil, &os.PathError{Op: "createtemp", Path: dir, Err: err}
	}
	f, err := i.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &injFile{f: f, inj: i, path: f.Name()}, nil
}

func (i *Injector) ReadFile(name string) ([]byte, error) {
	if _, err := i.enter(OpRead, name, 0); err != nil {
		return nil, &os.PathError{Op: "read", Path: name, Err: err}
	}
	return i.base.ReadFile(name)
}

func (i *Injector) MkdirAll(path string, perm os.FileMode) error {
	if _, err := i.enter(OpMkdir, path, 0); err != nil {
		return &os.PathError{Op: "mkdir", Path: path, Err: err}
	}
	return i.base.MkdirAll(path, perm)
}

func (i *Injector) Rename(oldpath, newpath string) error {
	if _, err := i.enter(OpRename, newpath, 0); err != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: err}
	}
	return i.base.Rename(oldpath, newpath)
}

func (i *Injector) Remove(name string) error {
	if _, err := i.enter(OpRemove, name, 0); err != nil {
		return &os.PathError{Op: "remove", Path: name, Err: err}
	}
	return i.base.Remove(name)
}

func (i *Injector) Chmod(name string, mode os.FileMode) error {
	if _, err := i.enter(OpChmod, name, 0); err != nil {
		return &os.PathError{Op: "chmod", Path: name, Err: err}
	}
	return i.base.Chmod(name, mode)
}

// injFile routes file-level ops back through the Injector's gate.
type injFile struct {
	f    File
	inj  *Injector
	path string
}

func (f *injFile) Read(p []byte) (int, error) {
	if _, err := f.inj.enter(OpRead, f.path, 0); err != nil {
		return 0, err
	}
	return f.f.Read(p)
}

func (f *injFile) ReadAt(p []byte, off int64) (int, error) {
	if _, err := f.inj.enter(OpRead, f.path, 0); err != nil {
		return 0, err
	}
	return f.f.ReadAt(p, off)
}

func (f *injFile) Write(p []byte) (int, error) {
	torn, err := f.inj.enter(OpWrite, f.path, len(p))
	if err != nil {
		if torn > 0 {
			n, werr := f.f.Write(p[:torn])
			if werr != nil {
				return n, werr
			}
			return n, fmt.Errorf("torn write after %d of %d bytes: %w", n, len(p), err)
		}
		return 0, err
	}
	return f.f.Write(p)
}

func (f *injFile) Sync() error {
	if _, err := f.inj.enter(OpSync, f.path, 0); err != nil {
		return err
	}
	return f.f.Sync()
}

func (f *injFile) Close() error {
	// Close after a crash is allowed to reach the OS: real kernels close
	// descriptors of dead processes, and leaking them would wedge the
	// test harness. Scripted close faults still apply.
	f.inj.mu.Lock()
	crashed := f.inj.crashed
	f.inj.mu.Unlock()
	if !crashed {
		if _, err := f.inj.enter(OpClose, f.path, 0); err != nil {
			f.f.Close()
			return err
		}
	}
	return f.f.Close()
}

func (f *injFile) Truncate(size int64) error {
	if _, err := f.inj.enter(OpTruncate, f.path, 0); err != nil {
		return err
	}
	return f.f.Truncate(size)
}

func (f *injFile) Stat() (os.FileInfo, error) {
	if _, err := f.inj.enter(OpRead, f.path, 0); err != nil {
		return nil, err
	}
	return f.f.Stat()
}

func (f *injFile) Name() string { return f.f.Name() }
