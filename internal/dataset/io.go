package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/binio"
	"repro/internal/geom"
)

// This file provides dataset persistence: a CSV text format (x,y[,value]
// with an optional header) for interchange with external tools, and a
// compact little-endian binary format for fast reloads of large generated
// datasets.

// WriteCSV writes d as CSV with header "x,y[,value]".
func WriteCSV(w io.Writer, d *Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	hasValues := d.Values != nil
	header := []string{"x", "y"}
	if hasValues {
		header = append(header, "value")
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	rec := make([]string, len(header))
	for i, p := range d.Points {
		rec[0] = strconv.FormatFloat(p.X, 'g', -1, 64)
		rec[1] = strconv.FormatFloat(p.Y, 'g', -1, 64)
		if hasValues {
			rec[2] = strconv.FormatFloat(d.Values[i], 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a dataset from CSV. The first row may be a header (any
// row whose first field does not parse as a float is skipped when it is
// row 0). Rows must have 2 or 3 fields; a third field populates Values.
func ReadCSV(r io.Reader, name string) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	d := &Dataset{Name: name}
	row := 0
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: csv row %d: %w", row, err)
		}
		row++
		if len(rec) < 2 {
			return nil, fmt.Errorf("dataset: csv row %d has %d fields, need >= 2", row, len(rec))
		}
		x, errX := strconv.ParseFloat(rec[0], 64)
		y, errY := strconv.ParseFloat(rec[1], 64)
		if errX != nil || errY != nil {
			if row == 1 {
				continue // header
			}
			return nil, fmt.Errorf("dataset: csv row %d: bad coordinates %q,%q", row, rec[0], rec[1])
		}
		d.Points = append(d.Points, geom.Pt(x, y))
		if len(rec) >= 3 && rec[2] != "" {
			v, err := strconv.ParseFloat(rec[2], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: csv row %d: bad value %q", row, rec[2])
			}
			d.Values = append(d.Values, v)
		}
	}
	if d.Values != nil && len(d.Values) != len(d.Points) {
		return nil, fmt.Errorf("dataset: csv mixes rows with and without values (%d values, %d points)", len(d.Values), len(d.Points))
	}
	return d, d.Validate()
}

// Binary format:
//
//	magic "VASD" | uint32 version | uint32 flags | uint64 n |
//	n × (float64 x, float64 y) | [n × float64 value when flags&1]
//
// Everything little-endian.
const (
	binaryMagic   = "VASD"
	binaryVersion = 1
	flagHasValues = 1
)

// WriteBinary writes d in the compact binary format (via the shared
// binio codec — the same primitives the catalog snapshot format uses).
func WriteBinary(w io.Writer, d *Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	bw := binio.NewWriter(w)
	bw.Raw([]byte(binaryMagic))
	var flags uint32
	if d.Values != nil {
		flags |= flagHasValues
	}
	bw.U32(binaryVersion)
	bw.U32(flags)
	bw.U64(uint64(len(d.Points)))
	for _, p := range d.Points {
		bw.F64(p.X)
		bw.F64(p.Y)
	}
	for _, v := range d.Values {
		bw.F64(v)
	}
	return bw.Flush()
}

// ReadBinarySized parses the compact binary format from an input known
// to hold size bytes: a header that claims more points than the bytes
// behind it can supply is rejected before anything is allocated.
func ReadBinarySized(r io.Reader, name string, size int64) (*Dataset, error) {
	br := binio.NewReader(r, size)
	magic := make([]byte, 4)
	br.Raw(magic)
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("dataset: read magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("dataset: bad magic %q", magic)
	}
	version := br.U32()
	flags := br.U32()
	n := br.U64()
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("dataset: unsupported version %d", version)
	}
	// Reject a header whose claimed rows cannot fit in the bytes behind
	// it before allocating for them.
	perPoint := uint64(16)
	if flags&flagHasValues != 0 {
		perPoint += 8
	}
	if rem := br.Remaining(); n > uint64(rem)/perPoint {
		return nil, fmt.Errorf("dataset: header claims %d points of %d bytes, %d bytes remain", n, perPoint, rem)
	}
	d := &Dataset{Name: name, Points: make([]geom.Point, n)}
	for i := range d.Points {
		d.Points[i] = geom.Pt(br.F64(), br.F64())
		if err := br.Err(); err != nil {
			return nil, fmt.Errorf("dataset: point %d: %w", i, err)
		}
	}
	if flags&flagHasValues != 0 {
		d.Values = make([]float64, n)
		for i := range d.Values {
			d.Values[i] = br.F64()
			if err := br.Err(); err != nil {
				return nil, fmt.Errorf("dataset: value %d: %w", i, err)
			}
		}
	}
	return d, d.Validate()
}

// SaveFile writes d to path, choosing the format from the extension
// (".csv" → CSV, anything else → binary).
func SaveFile(path string, d *Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if hasCSVExt(path) {
		if err := WriteCSV(f, d); err != nil {
			return err
		}
	} else if err := WriteBinary(f, d); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a dataset from path, choosing the format from the
// extension. The file size bounds the binary decoder's allocations.
func LoadFile(path, name string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if hasCSVExt(path) {
		return ReadCSV(f, name)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return ReadBinarySized(f, name, st.Size())
}

func hasCSVExt(path string) bool {
	return len(path) >= 4 && path[len(path)-4:] == ".csv"
}
