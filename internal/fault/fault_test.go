package fault

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func openFile(t *testing.T, inj *Injector, path string) File {
	t.Helper()
	f, err := inj.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFailOnce: a scripted fault fires on the first op that matches both
// its kind and its path substring, and on nothing else.
func TestFailOnce(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(nil)
	inj.FailOnce(OpSync, "b.dat", syscall.ENOSPC)

	a := openFile(t, inj, filepath.Join(dir, "a.dat"))
	defer a.Close()
	if err := a.Sync(); err != nil {
		t.Fatalf("sync on a non-matching path failed: %v", err)
	}
	b := openFile(t, inj, filepath.Join(dir, "b.dat"))
	defer b.Close()
	if _, err := b.Write([]byte("x")); err != nil {
		t.Fatalf("non-matching op on the matching path failed: %v", err)
	}
	if err := b.Sync(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("matching sync: err %v, want ENOSPC", err)
	}
	if err := b.Sync(); err != nil {
		t.Fatalf("fault fired twice: %v", err)
	}

	// No error given means ErrInjected; an empty substring matches any
	// path.
	inj.FailOnce(OpRename, "", nil)
	from, to := filepath.Join(dir, "a.dat"), filepath.Join(dir, "c.dat")
	if err := inj.Rename(from, to); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed rename: err %v, want ErrInjected", err)
	}
	if err := inj.Rename(from, to); err != nil {
		t.Fatalf("rename after the one-shot fault: %v", err)
	}
	if inj.Crashed() {
		t.Fatal("scripted faults reported a crash")
	}
}

// TestCrashAt: the n-th mutating op fails with ErrCrashed before it
// touches the disk, and so does every op after it, reads included.
func TestCrashAt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.dat")
	inj := NewInjector(nil)
	inj.CrashAt(2, false)

	f := openFile(t, inj, path) // op 0
	defer f.Close()
	if _, err := f.Write([]byte("hello")); err != nil { // op 1
		t.Fatal(err)
	}
	if inj.Crashed() {
		t.Fatal("Crashed before the crash point")
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) { // op 2
		t.Fatalf("op at the crash point: err %v, want ErrCrashed", err)
	}
	if !inj.Crashed() {
		t.Fatal("Crashed is false after the crash point fired")
	}
	if _, err := f.Write([]byte(" world")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after the crash: err %v, want ErrCrashed", err)
	}
	if _, err := inj.ReadFile(path); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read after the crash: err %v, want ErrCrashed", err)
	}
	if err := inj.Remove(path); !errors.Is(err, ErrCrashed) {
		t.Fatalf("remove after the crash: err %v, want ErrCrashed", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello" {
		t.Fatalf("disk holds %q, want only what landed before the crash", data)
	}
}

// TestCrashAtTorn: a torn crash on a write lands a strict, non-empty
// prefix of the buffer and then fails.
func TestCrashAtTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.dat")
	inj := NewInjector(nil)
	inj.CrashAt(1, true)

	f := openFile(t, inj, path) // op 0
	payload := []byte("0123456789abcdef")
	n, err := f.Write(payload) // op 1
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn write: err %v, want ErrCrashed", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close after the crash: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || len(data) >= len(payload) || len(data) != n || !bytes.Equal(data, payload[:len(data)]) {
		t.Fatalf("disk holds %q (write reported %d), want a strict prefix of %q", data, n, payload)
	}
	if !inj.Crashed() {
		t.Fatal("Crashed is false after a torn crash")
	}
}

// TestLogListsSitesInOrder: the op log records every mutating op — the
// crash sites — in issue order, and nothing that cannot change the
// disk.
func TestLogListsSitesInOrder(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sub")
	final := filepath.Join(dir, "final.dat")
	inj := NewInjector(nil)

	if err := inj.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := inj.CreateTemp(dir, "tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := inj.Chmod(f.Name(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := inj.Rename(f.Name(), final); err != nil {
		t.Fatal(err)
	}
	if _, err := inj.ReadFile(final); err != nil {
		t.Fatal(err)
	}
	g := openFile(t, inj, final)
	if err := g.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := inj.Remove(final); err != nil {
		t.Fatal(err)
	}

	want := []OpRecord{
		{OpMkdir, dir},
		{OpCreate, dir + "/tmp-*"},
		{OpWrite, f.Name()},
		{OpSync, f.Name()},
		{OpChmod, f.Name()},
		{OpRename, final},
		{OpOpen, final},
		{OpTruncate, final},
		{OpRemove, final},
	}
	got := inj.Log()
	if len(got) != len(want) || inj.Ops() != len(want) {
		t.Fatalf("log has %d sites (Ops %d), want %d: %v", len(got), inj.Ops(), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("site %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
