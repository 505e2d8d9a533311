package snapshot

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestTailRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.tail")
	batches := []struct {
		table string
		cols  [][]float64
	}{
		{"gps", [][]float64{{1, 2, 3}, {4, 5, 6}}},
		{"gps", [][]float64{{math.NaN(), math.Inf(1)}, {7, -0.0}}},
		{"other", [][]float64{{9}, {10}, {11}}},
	}
	for _, b := range batches {
		if err := AppendTail(path, b.table, b.cols, 0); err != nil {
			t.Fatal(err)
		}
	}
	recs, _, err := LoadTail(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(batches) {
		t.Fatalf("loaded %d records, wrote %d", len(recs), len(batches))
	}
	for i, b := range batches {
		if recs[i].Table != b.table {
			t.Fatalf("record %d table %q, want %q", i, recs[i].Table, b.table)
		}
		if len(recs[i].Cols) != len(b.cols) {
			t.Fatalf("record %d has %d cols, want %d", i, len(recs[i].Cols), len(b.cols))
		}
		for ci := range b.cols {
			for ri := range b.cols[ci] {
				got, want := recs[i].Cols[ci][ri], b.cols[ci][ri]
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("record %d col %d row %d: %g != %g", i, ci, ri, got, want)
				}
			}
		}
	}
}

func TestTailMissingIsEmpty(t *testing.T) {
	recs, _, err := LoadTail(filepath.Join(t.TempDir(), "nope.tail"))
	if err != nil || recs != nil {
		t.Fatalf("missing tail: recs %v err %v, want nil/nil", recs, err)
	}
}

// TestTailTornFinalRecordDropped simulates a crash mid-append: every
// truncation point inside the final record must load cleanly with that
// record dropped and every earlier record intact.
func TestTailTornFinalRecordDropped(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "catalog.tail")
	if err := AppendTail(path, "gps", [][]float64{{1, 2}, {3, 4}}, 0); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := AppendTail(path, "gps", [][]float64{{5, 6, 7}, {8, 9, 10}}, 0); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(whole); cut < len(full); cut++ {
		torn := filepath.Join(dir, "torn.tail")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, _, err := LoadTail(torn)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(recs) != 1 || len(recs[0].Cols[0]) != 2 {
			t.Fatalf("cut at %d: got %d records, want the 1 intact one", cut, len(recs))
		}
	}
}

// TestTailCorruptionRejected flips one byte inside a complete record's
// payload: the CRC must catch it and fail the load (unlike a torn
// tail, this is not a crash artifact).
func TestTailCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "catalog.tail")
	if err := AppendTail(path, "gps", [][]float64{{1, 2, 3}, {4, 5, 6}}, 0); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte (inside the record, past header + frame len).
	raw[tailHeaderLen+8+4] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadTail(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted tail loaded: err %v, want ErrCorrupt", err)
	}
}

// TestTailVersionSkewRejected: a log stamped with any version but the
// one this build writes — older or newer — is refused by both the
// loader and the appender, never read or extended.
func TestTailVersionSkewRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "catalog.tail")
	if err := AppendTail(path, "gps", [][]float64{{1}, {2}}, 0); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{1, 2, 4} {
		raw := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(raw[4:8], v)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadTail(path); !errors.Is(err, ErrVersionSkew) {
			t.Fatalf("v%d tail loaded: err %v, want ErrVersionSkew", v, err)
		}
		if err := AppendTail(path, "gps", [][]float64{{3}, {4}}, 0); !errors.Is(err, ErrVersionSkew) {
			t.Fatalf("v%d tail appended to: err %v, want ErrVersionSkew", v, err)
		}
	}
}

func TestRemoveTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "catalog.tail")
	if err := RemoveTail(path); err != nil {
		t.Fatalf("removing a missing tail: %v", err)
	}
	if err := AppendTail(path, "gps", [][]float64{{1}, {2}}, 0); err != nil {
		t.Fatal(err)
	}
	if err := RemoveTail(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("tail still present after RemoveTail")
	}
}

// TestTailDeleteRoundTrip interleaves append and delete records and
// checks the replay stream comes back in order with exact predicates.
func TestTailDeleteRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.tail")
	if err := AppendTail(path, "gps", [][]float64{{1, 2}, {3, 4}}, 0); err != nil {
		t.Fatal(err)
	}
	preds := []TailPred{
		{Col: "x", Min: math.Inf(-1), Max: 5},
		{Col: "speed|odd:name", Min: -0.0, Max: math.Inf(1)},
	}
	if err := AppendTailDelete(path, "gps", preds, 0); err != nil {
		t.Fatal(err)
	}
	if err := AppendTail(path, "gps", [][]float64{{9}, {10}}, 0); err != nil {
		t.Fatal(err)
	}
	if err := AppendTailDelete(path, "other", nil, 0); err != nil { // delete-everything
		t.Fatal(err)
	}
	recs, _, err := LoadTail(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("loaded %d records, wrote 4", len(recs))
	}
	wantDelete := []bool{false, true, false, true}
	for i, rec := range recs {
		if rec.Delete != wantDelete[i] {
			t.Fatalf("record %d Delete = %t, want %t", i, rec.Delete, wantDelete[i])
		}
	}
	d := recs[1]
	if d.Table != "gps" || len(d.Preds) != len(preds) || d.Cols != nil {
		t.Fatalf("delete record diverged: %+v", d)
	}
	for i, p := range preds {
		g := d.Preds[i]
		if g.Col != p.Col || math.Float64bits(g.Min) != math.Float64bits(p.Min) ||
			math.Float64bits(g.Max) != math.Float64bits(p.Max) {
			t.Fatalf("pred %d: %+v, want %+v", i, g, p)
		}
	}
	if last := recs[3]; last.Table != "other" || len(last.Preds) != 0 {
		t.Fatalf("delete-everything record diverged: %+v", last)
	}
}

// TestTailUnknownKindRejected: a well-framed record with a kind this
// build does not know is corruption, not a silent skip — replay order
// matters, so an unreplayable mutation poisons the log.
func TestTailUnknownKindRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.tail")
	if err := AppendTail(path, "gps", [][]float64{{1}, {2}}, 0); err != nil {
		t.Fatal(err)
	}
	payload := binary.LittleEndian.AppendUint32(nil, 7) // unknown kind
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw = binary.LittleEndian.AppendUint64(raw, uint64(len(payload)))
	raw = append(raw, payload...)
	raw = binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(payload))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadTail(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown-kind record loaded: err %v, want ErrCorrupt", err)
	}
}

// TestTailTornDeleteDropped: a crash mid-way through writing a delete
// record leaves every earlier record loadable, like torn appends.
func TestTailTornDeleteDropped(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "catalog.tail")
	if err := AppendTail(path, "gps", [][]float64{{1, 2}, {3, 4}}, 0); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := AppendTailDelete(path, "gps", []TailPred{{Col: "x", Min: 0, Max: 50}}, 0); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(whole); cut < len(full); cut++ {
		torn := filepath.Join(dir, "torn.tail")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, _, err := LoadTail(torn)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(recs) != 1 || recs[0].Delete {
			t.Fatalf("cut at %d: got %d records, want the 1 intact append", cut, len(recs))
		}
	}
}
