package dataset

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/binio"
	"repro/internal/geom"
)

func sampleDataset() *Dataset {
	return &Dataset{
		Name:   "test",
		Points: []geom.Point{geom.Pt(1.5, -2.25), geom.Pt(0, 0), geom.Pt(1e-9, 1e9)},
		Values: []float64{10, -3.5, 0},
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := sampleDataset()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "test")
	if err != nil {
		t.Fatal(err)
	}
	assertEqualDatasets(t, d, got)
}

func TestCSVRoundTripNoValues(t *testing.T) {
	d := &Dataset{Name: "nv", Points: []geom.Point{geom.Pt(1, 2), geom.Pt(3, 4)}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "x,y\n") {
		t.Errorf("header = %q", buf.String()[:10])
	}
	got, err := ReadCSV(&buf, "nv")
	if err != nil {
		t.Fatal(err)
	}
	if got.Values != nil {
		t.Error("values should be nil")
	}
	assertEqualDatasets(t, d, got)
}

func TestReadCSVWithoutHeader(t *testing.T) {
	got, err := ReadCSV(strings.NewReader("1,2\n3,4\n"), "raw")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Points[0] != geom.Pt(1, 2) {
		t.Errorf("parsed %v", got.Points)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"too few fields":      "1\n",
		"bad coords mid-file": "1,2\nx,y\n",
		"bad value":           "1,2,z\n",
		"mixed values":        "1,2,3\n4,5\n",
	}
	for name, input := range cases {
		if _, err := ReadCSV(strings.NewReader(input), "bad"); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	// A header row is only forgiven on row 1.
	if _, err := ReadCSV(strings.NewReader("x,y\n1,2\n"), "hdr"); err != nil {
		t.Errorf("header row rejected: %v", err)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	d := sampleDataset()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinarySized(&buf, "test", int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	assertEqualDatasets(t, d, got)
}

func TestBinaryRoundTripNoValues(t *testing.T) {
	d := &Dataset{Name: "nv", Points: []geom.Point{geom.Pt(-1, 7)}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinarySized(&buf, "nv", int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Values != nil {
		t.Error("values should be nil")
	}
	assertEqualDatasets(t, d, got)
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinarySized(strings.NewReader("NOTMAGIC........"), "g", 16); err == nil {
		t.Error("bad magic: want error")
	}
	if _, err := ReadBinarySized(strings.NewReader("VA"), "g", 2); err == nil {
		t.Error("truncated magic: want error")
	}
	// Truncated body.
	d := sampleDataset()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, d); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadBinarySized(bytes.NewReader(trunc), "t", int64(len(trunc))); err == nil {
		t.Error("truncated body: want error")
	}
	// An input shorter than its stated size runs out mid-value.
	if _, err := ReadBinarySized(bytes.NewReader(trunc), "t", int64(buf.Len())); !errors.Is(err, binio.ErrTruncated) {
		t.Errorf("body short of its size: %v, want ErrTruncated", err)
	}
}

func TestBinaryRejectsHugeHeader(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("VASD")
	buf.Write([]byte{1, 0, 0, 0}) // version 1
	buf.Write([]byte{0, 0, 0, 0}) // flags
	// n = 2^40
	buf.Write([]byte{0, 0, 0, 0, 0, 1, 0, 0})
	if _, err := ReadBinarySized(&buf, "huge", int64(buf.Len())); err == nil {
		t.Error("absurd point count: want error")
	}
}

// TestSizedReadRejectsOverclaimingHeader: with a known input size, a
// header claiming more points than the bytes behind it can hold must be
// rejected before the points are allocated — even when the claim is
// under the absolute maxPoints cap.
func TestSizedReadRejectsOverclaimingHeader(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("VASD")
	buf.Write([]byte{1, 0, 0, 0})              // version 1
	buf.Write([]byte{0, 0, 0, 0})              // flags
	buf.Write([]byte{0, 0, 0, 64, 0, 0, 0, 0}) // n = 2^30, under maxPoints
	data := buf.Bytes()
	if _, err := ReadBinarySized(bytes.NewReader(data), "hostile", int64(len(data))); err == nil {
		t.Error("over-claiming header with known size: want error")
	}
	// The same bytes through LoadFile (which stats the file) must also
	// be rejected up front.
	path := filepath.Join(t.TempDir(), "hostile.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path, "hostile"); err == nil {
		t.Error("over-claiming header via LoadFile: want error")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	d := sampleDataset()
	for _, name := range []string{"d.csv", "d.bin"} {
		path := filepath.Join(dir, name)
		if err := SaveFile(path, d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := LoadFile(path, "roundtrip")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertEqualDatasets(t, d, got)
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.csv"), "x"); err == nil {
		t.Error("missing file: want error")
	}
}

func assertEqualDatasets(t *testing.T, want, got *Dataset) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("length %d, want %d", got.Len(), want.Len())
	}
	for i := range want.Points {
		if got.Points[i] != want.Points[i] {
			t.Fatalf("point %d: %v != %v", i, got.Points[i], want.Points[i])
		}
	}
	if (got.Values == nil) != (want.Values == nil) {
		t.Fatalf("values presence mismatch")
	}
	for i := range want.Values {
		if got.Values[i] != want.Values[i] {
			t.Fatalf("value %d: %v != %v", i, got.Values[i], want.Values[i])
		}
	}
}
