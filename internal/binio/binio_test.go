package binio

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U32(0xDEADBEEF)
	w.U64(1 << 62)
	w.F64(math.Pi)
	w.F64(math.NaN())
	w.String("hello, snapshot")
	w.String("")
	f64s := make([]float64, 10_000) // exercise the chunked path
	for i := range f64s {
		f64s[i] = float64(i) * 1.5
	}
	f64s[7] = math.Inf(-1)
	w.F64s(f64s)
	i32s := make([]int32, 20_000)
	for i := range i32s {
		i32s[i] = int32(i - 10_000)
	}
	w.I32s(i32s)
	bools := []bool{true, false, true, true}
	w.Bools(bools)
	w.F64s(nil)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if got := r.U32(); got != 0xDEADBEEF {
		t.Fatalf("U32 = %x", got)
	}
	if got := r.U64(); got != 1<<62 {
		t.Fatalf("U64 = %x", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Fatalf("F64 = %v", got)
	}
	if got := r.F64(); !math.IsNaN(got) {
		t.Fatalf("F64 NaN = %v", got)
	}
	if got := r.String(64); got != "hello, snapshot" {
		t.Fatalf("String = %q", got)
	}
	if got := r.String(64); got != "" {
		t.Fatalf("empty String = %q", got)
	}
	gotF := r.F64s()
	if len(gotF) != len(f64s) {
		t.Fatalf("F64s len = %d", len(gotF))
	}
	for i := range f64s {
		if math.Float64bits(gotF[i]) != math.Float64bits(f64s[i]) {
			t.Fatalf("F64s[%d] = %v want %v", i, gotF[i], f64s[i])
		}
	}
	gotI := r.I32s()
	if len(gotI) != len(i32s) {
		t.Fatalf("I32s len = %d", len(gotI))
	}
	for i := range i32s {
		if gotI[i] != i32s[i] {
			t.Fatalf("I32s[%d] = %d want %d", i, gotI[i], i32s[i])
		}
	}
	gotB := r.Bools()
	if len(gotB) != len(bools) {
		t.Fatalf("Bools len = %d", len(gotB))
	}
	for i := range bools {
		if gotB[i] != bools[i] {
			t.Fatalf("Bools[%d] = %v", i, gotB[i])
		}
	}
	if got := r.F64s(); got != nil {
		t.Fatalf("nil F64s = %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestBudgetRejectsHostileCounts checks that a length prefix larger than
// the input can supply fails before allocating, not with an OOM or a
// long read loop.
func TestBudgetRejectsHostileCounts(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(1 << 60) // claims 2^60 float64s
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if got := r.F64s(); got != nil {
		t.Fatalf("hostile F64s returned %d elements", len(got))
	}
	if err := r.Err(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestTruncatedMidValue(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.F64s([]float64{1, 2, 3})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < buf.Len(); cut++ {
		data := buf.Bytes()[:cut]
		r := NewReader(bytes.NewReader(data), int64(len(data)))
		r.F64s()
		if err := r.Err(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

// TestStickyError checks that the first error latches and later reads
// are inert.
func TestStickyError(t *testing.T) {
	r := NewReader(bytes.NewReader(nil), 0)
	_ = r.U64()
	first := r.Err()
	if first == nil {
		t.Fatal("expected an error from an empty input")
	}
	_ = r.U32()
	_ = r.F64s()
	_ = r.String(10)
	if r.Err() != first {
		t.Fatalf("error was overwritten: %v -> %v", first, r.Err())
	}
}

func TestStringLimit(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.String("0123456789")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if got := r.String(4); got != "" || r.Err() == nil {
		t.Fatalf("over-limit string: %q, err %v", got, r.Err())
	}
}

// TestStringBudgetBeforeAlloc: a 6-byte input that claims a 4 KiB
// string fails with ErrTruncated before the string's buffer is made.
func TestStringBudgetBeforeAlloc(t *testing.T) {
	data := []byte{0x00, 0x10, 0x00, 0x00, 'a', 'b'} // length 4096, then 2 bytes
	const runs = 100
	var r *Reader
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		r = NewBytesReader(data)
		if got := r.String(1 << 20); got != "" {
			t.Fatalf("String = %q", got)
		}
	}
	runtime.ReadMemStats(&after)
	if err := r.Err(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got >= 1<<10 {
		t.Fatalf("rejecting the claim allocated %d bytes, want < 1 KiB", got)
	}
}
