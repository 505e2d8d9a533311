// Package binio is the shared little-endian binary codec under every
// on-disk format in this repository (the dataset files of
// internal/dataset and the catalog snapshots of internal/snapshot). It
// replaces scattered encoding/binary boilerplate with two sticky-error
// wrappers:
//
//   - Writer buffers and emits fixed-width primitives and
//     length-prefixed slices; the first error latches and every later
//     call is a no-op, so codecs read as straight-line field lists with
//     one error check at the end.
//   - Reader mirrors Writer and adds an allocation budget: it is
//     constructed with the input's size, and a length prefix larger
//     than the bytes that could possibly follow is rejected before
//     anything is allocated — a truncated or hostile header can cost at
//     most the bytes actually present, never an OOM.
package binio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// ErrTruncated is wrapped by Reader errors caused by the input ending
// (or claiming more elements than its size allows) mid-value.
var ErrTruncated = errors.New("binio: truncated input")

// Writer emits little-endian primitives to an underlying writer through
// a buffer. The first write error latches: later calls do nothing and
// Flush reports it.
type Writer struct {
	w   *bufio.Writer
	err error
	buf [8]byte
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Flush drains the buffer and returns the first error encountered.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.w.Flush()
	return w.err
}

// Raw writes b verbatim.
func (w *Writer) Raw(b []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(b)
}

// U32 writes a uint32.
func (w *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.Raw(w.buf[:4])
}

// U64 writes a uint64.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:8], v)
	w.Raw(w.buf[:8])
}

// F64 writes a float64 as its IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// String writes a uint32 length prefix followed by the bytes of s.
func (w *Writer) String(s string) {
	if len(s) > math.MaxUint32 {
		w.fail(fmt.Errorf("binio: string of %d bytes exceeds the format's 32-bit length", len(s)))
		return
	}
	w.U32(uint32(len(s)))
	if w.err == nil {
		_, w.err = w.w.WriteString(s)
	}
}

// chunkBytes caps the scratch buffer the slice codecs convert through:
// large enough that the per-chunk call overhead vanishes, small enough
// to stay cache-resident. The scratch escapes to the heap, so each call
// sizes it to its slice: a short slice must not cost 64 KiB.
const chunkBytes = 1 << 16

// F64s writes a uint64 count followed by the raw IEEE-754 bits of v,
// converted through a chunk buffer (these slices are the bulk of a
// snapshot; per-element writes would dominate the save).
func (w *Writer) F64s(v []float64) {
	w.U64(uint64(len(v)))
	if w.err != nil {
		return
	}
	chunk := make([]byte, min(len(v)*8, chunkBytes))
	for len(v) > 0 {
		n := min(len(v), chunkBytes/8)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(chunk[i*8:], math.Float64bits(v[i]))
		}
		w.Raw(chunk[:n*8])
		if w.err != nil {
			return
		}
		v = v[n:]
	}
}

// I32s writes a uint64 count followed by the elements of v as uint32
// bit patterns (two's complement survives the round trip).
func (w *Writer) I32s(v []int32) {
	w.U64(uint64(len(v)))
	if w.err != nil {
		return
	}
	chunk := make([]byte, min(len(v)*4, chunkBytes))
	for len(v) > 0 {
		n := min(len(v), chunkBytes/4)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(chunk[i*4:], uint32(v[i]))
		}
		w.Raw(chunk[:n*4])
		if w.err != nil {
			return
		}
		v = v[n:]
	}
}

// Bools writes a uint64 count followed by one byte per element.
func (w *Writer) Bools(v []bool) {
	w.U64(uint64(len(v)))
	for _, b := range v {
		if w.err != nil {
			return
		}
		var by byte
		if b {
			by = 1
		}
		w.err = w.w.WriteByte(by)
	}
}

func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Reader consumes little-endian primitives with a byte budget. The
// budget is the number of bytes the input can still supply; every slice
// read checks its claimed size against it before allocating.
type Reader struct {
	r         io.Reader
	remaining int64 // bytes the input may still yield
	err       error
	buf       [8]byte
}

// NewReader returns a Reader over r, which holds limit bytes: it will
// refuse to read (or allocate for) more than that.
func NewReader(r io.Reader, limit int64) *Reader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &Reader{r: br, remaining: limit}
}

// NewBytesReader returns a Reader over b, budgeted to len(b). The bytes
// are already in memory, so no buffer sits between them and the reads.
func NewBytesReader(b []byte) *Reader {
	return &Reader{r: bytes.NewReader(b), remaining: int64(len(b))}
}

// Err returns the latched error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the unread byte budget. Codecs use it to reject
// payloads with trailing garbage.
func (r *Reader) Remaining() int64 { return r.remaining }

// fail latches err (first one wins).
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// take debits n bytes from the budget, latching ErrTruncated when the
// input cannot possibly supply them.
func (r *Reader) take(n int64) bool {
	if r.err != nil {
		return false
	}
	if n > r.remaining {
		r.fail(fmt.Errorf("%w: need %d bytes, %d remain", ErrTruncated, n, r.remaining))
		return false
	}
	r.remaining -= n
	return true
}

// Raw reads exactly len(b) bytes into b.
func (r *Reader) Raw(b []byte) {
	if !r.take(int64(len(b))) {
		return
	}
	if _, err := io.ReadFull(r.r, b); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			err = fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		r.fail(err)
	}
}

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	r.Raw(r.buf[:4])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(r.buf[:4])
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	r.Raw(r.buf[:8])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[:8])
}

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// String reads a uint32-length-prefixed string of at most maxLen bytes.
func (r *Reader) String(maxLen int) string {
	n := r.U32()
	if r.err != nil {
		return ""
	}
	if int64(n) > r.remaining {
		r.fail(fmt.Errorf("%w: string claims %d bytes, %d remain", ErrTruncated, n, r.remaining))
		return ""
	}
	if int64(n) > int64(maxLen) {
		r.fail(fmt.Errorf("binio: string of %d bytes exceeds limit %d", n, maxLen))
		return ""
	}
	b := make([]byte, n)
	r.Raw(b)
	if r.err != nil {
		return ""
	}
	return string(b)
}

// sliceCount reads a uint64 count for elements of elemSize bytes,
// validating it against the remaining budget before the caller
// allocates anything.
func (r *Reader) sliceCount(elemSize int64) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if n > math.MaxInt64/uint64(elemSize) {
		r.fail(fmt.Errorf("%w: slice count %d overflows", ErrTruncated, n))
		return 0
	}
	if int64(n)*elemSize > r.remaining {
		r.fail(fmt.Errorf("%w: slice claims %d elements (%d bytes), %d bytes remain",
			ErrTruncated, n, int64(n)*elemSize, r.remaining))
		return 0
	}
	return int(n)
}

// F64s reads a count-prefixed float64 slice. Returns nil for count 0.
func (r *Reader) F64s() []float64 {
	n := r.sliceCount(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	chunk := make([]byte, min(n*8, chunkBytes))
	for off := 0; off < n; {
		c := min(n-off, chunkBytes/8)
		r.Raw(chunk[:c*8])
		if r.err != nil {
			return nil
		}
		for i := 0; i < c; i++ {
			out[off+i] = math.Float64frombits(binary.LittleEndian.Uint64(chunk[i*8:]))
		}
		off += c
	}
	return out
}

// I32s reads a count-prefixed int32 slice. Returns nil for count 0.
func (r *Reader) I32s() []int32 {
	n := r.sliceCount(4)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int32, n)
	chunk := make([]byte, min(n*4, chunkBytes))
	for off := 0; off < n; {
		c := min(n-off, chunkBytes/4)
		r.Raw(chunk[:c*4])
		if r.err != nil {
			return nil
		}
		for i := 0; i < c; i++ {
			out[off+i] = int32(binary.LittleEndian.Uint32(chunk[i*4:]))
		}
		off += c
	}
	return out
}

// Bools reads a count-prefixed bool slice (one byte per element; any
// non-zero byte is true). Returns nil for count 0.
func (r *Reader) Bools() []bool {
	n := r.sliceCount(1)
	if r.err != nil || n == 0 {
		return nil
	}
	raw := make([]byte, n)
	r.Raw(raw)
	if r.err != nil {
		return nil
	}
	out := make([]bool, n)
	for i, b := range raw {
		out[i] = b != 0
	}
	return out
}
