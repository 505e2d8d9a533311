package snapshot

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geom"
	"repro/internal/store"
)

// downgrade re-encodes a freshly written snapshot as an older build
// would have written it: it patches the header version and strips the
// v4 epoch field from the end of the catalog section (the first section
// Write emits), recomputing the section's length and CRC.
func downgrade(t *testing.T, data []byte, version byte) []byte {
	t.Helper()
	out := append([]byte(nil), data...)
	out[4] = version
	const secOff = 12 // magic + version + section count
	plen := binary.LittleEndian.Uint64(out[secOff+4 : secOff+12])
	if plen < 8 {
		t.Fatalf("catalog section only %d bytes", plen)
	}
	payload := out[secOff+12 : secOff+12+int(plen)-8]
	rest := out[secOff+12+int(plen)+4:]
	binary.LittleEndian.PutUint64(out[secOff+4:secOff+12], plen-8)
	head := out[:secOff+12+int(plen)-8]
	head = binary.LittleEndian.AppendUint32(head, crc32.ChecksumIEEE(payload))
	return append(head, rest...)
}

// randomStore builds a store of 1-3 random multi-column tables: NaN and
// ±Inf coordinates (the index extras path), NaN values in filter
// columns (zone-map NaN flags), appended tails past the index build,
// and one unindexed table, plus sample lineage between them.
func randomStore(t testing.TB, rng *rand.Rand) (*store.Store, []string) {
	t.Helper()
	st := store.New()
	ntables := 1 + rng.Intn(3)
	var names []string
	colPool := []string{"x", "y", "v", "w", "t"}
	for ti := 0; ti < ntables; ti++ {
		name := string(rune('a'+ti)) + "_tbl"
		ncols := 2 + rng.Intn(3)
		cols := colPool[:ncols]
		tb, err := st.CreateTable(name, cols...)
		if err != nil {
			t.Fatal(err)
		}
		n := rng.Intn(4000)
		data := make([][]float64, ncols)
		for c := range data {
			data[c] = make([]float64, n)
			for i := range data[c] {
				switch rng.Intn(50) {
				case 0:
					data[c][i] = math.NaN()
				case 1:
					data[c][i] = math.Inf(1 - 2*rng.Intn(2))
				default:
					data[c][i] = rng.NormFloat64() * 20
				}
			}
		}
		if err := tb.BulkLoad(data...); err != nil {
			t.Fatal(err)
		}
		if ti != 1 { // leave one table unindexed when there are several
			if rng.Intn(2) == 0 {
				// Exercise the R-tree backend's snapshot path too.
				if err := tb.SetIndexBackend(store.BackendRTree); err != nil {
					t.Fatal(err)
				}
			}
			if err := tb.IndexOn("x", "y"); err != nil {
				t.Fatal(err)
			}
		}
		// Appended tail: rows the index does not cover.
		tail := rng.Intn(30)
		row := make([]float64, ncols)
		for i := 0; i < tail; i++ {
			for c := range row {
				row[c] = rng.NormFloat64() * 20
			}
			if err := tb.Append(row...); err != nil {
				t.Fatal(err)
			}
		}
		// Tombstones (sometimes): snapshots routinely carry a Dead
		// section, and NaN-x rows match any range so extras die too.
		if rng.Intn(2) == 0 {
			if _, err := tb.DeleteWhere([]store.Pred{{Column: "x", Min: -10, Max: float64(rng.Intn(20))}}); err != nil {
				t.Fatal(err)
			}
		}
		names = append(names, name)
	}
	// Sample lineage: a small indexed sample of the first table.
	first, err := st.Table(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if first.NumRows() > 10 {
		xs, _ := first.Column("x")
		ys, _ := first.Column("y")
		k := 5 + rng.Intn(5)
		sx := append([]float64(nil), xs[:k]...)
		sy := append([]float64(nil), ys[:k]...)
		sample, err := store.NewTable(names[0]+"_vas", "x", "y")
		if err != nil {
			t.Fatal(err)
		}
		if err := sample.BulkLoad(sx, sy); err != nil {
			t.Fatal(err)
		}
		if err := sample.IndexOn("x", "y"); err != nil {
			t.Fatal(err)
		}
		if err := st.PublishSample(sample, store.SampleMeta{
			Table: names[0] + "_vas", Source: names[0], Method: "vas",
			XCol: "x", YCol: "y", Size: k,
		}); err != nil {
			t.Fatal(err)
		}
		names = append(names, names[0]+"_vas")
	}
	return st, names
}

// snapshotStore captures every table of st into a snapshot catalog.
func snapshotStore(t testing.TB, st *store.Store, prov []Provenance) *Catalog {
	t.Helper()
	cat := &Catalog{Provenance: prov}
	cat.Tables, cat.Samples = st.SnapshotCatalog()
	return cat
}

// restoreStore loads a decoded snapshot into a fresh store the way the
// serving layer does: validate every table, then publish atomically.
func restoreStore(t testing.TB, cat *Catalog) *store.Store {
	t.Helper()
	tables := make([]*store.Table, 0, len(cat.Tables))
	for _, ts := range cat.Tables {
		tb, err := store.TableFromSnapshot(ts)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tb)
	}
	fresh := store.New()
	if err := fresh.PublishCatalog(tables, cat.Samples); err != nil {
		t.Fatal(err)
	}
	return fresh
}

// TestSnapshotRoundTripProperty is the subsystem's property test: a
// random multi-column catalog (NaN/±Inf coords, appended tails, extras,
// sample lineage) survives Save→Load into a fresh store with identical
// Scan / ScanRectWhere results and identical index shape.
func TestSnapshotRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		orig, names := randomStore(t, rng)
		path := filepath.Join(dir, "cat.snap")
		if err := Save(path, snapshotStore(t, orig, nil)); err != nil {
			t.Fatalf("trial %d: save: %v", trial, err)
		}
		loaded, err := Load(path)
		if err != nil {
			t.Fatalf("trial %d: load: %v", trial, err)
		}
		fresh := restoreStore(t, loaded)

		oStats, fStats := orig.IndexStats(), fresh.IndexStats()
		if oStats.Indexes != fStats.Indexes || oStats.Cells != fStats.Cells ||
			oStats.IndexedRows != fStats.IndexedRows || oStats.IndexedTables != fStats.IndexedTables {
			t.Fatalf("trial %d: index stats diverge: %+v vs %+v", trial, oStats, fStats)
		}

		for _, name := range names {
			ot, err := orig.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			ft, err := fresh.Table(name)
			if err != nil {
				t.Fatalf("trial %d: table %q missing after restore: %v", trial, name, err)
			}
			if ot.NumRows() != ft.NumRows() {
				t.Fatalf("trial %d: table %q rows %d vs %d", trial, name, ot.NumRows(), ft.NumRows())
			}
			if ot.LiveRows() != ft.LiveRows() {
				t.Fatalf("trial %d: table %q live rows %d vs %d", trial, name, ot.LiveRows(), ft.LiveRows())
			}
			for probe := 0; probe < 8; probe++ {
				r := geom.Rect{
					MinX: rng.NormFloat64() * 25, MinY: rng.NormFloat64() * 25,
					MaxX: rng.NormFloat64() * 25, MaxY: rng.NormFloat64() * 25,
				}
				if r.MinX > r.MaxX {
					r.MinX, r.MaxX = r.MaxX, r.MinX
				}
				if r.MinY > r.MaxY {
					r.MinY, r.MaxY = r.MaxY, r.MinY
				}
				var preds []store.Pred
				if probe%2 == 1 {
					cols := ot.Columns()
					preds = append(preds, store.Pred{
						Column: cols[rng.Intn(len(cols))],
						Min:    rng.NormFloat64() * 20, Max: rng.NormFloat64() * 20,
					})
				}
				want, wantSt, err := ot.View().ScanRects(context.Background(), "x", "y", []geom.Rect{r}, preds)
				if err != nil {
					t.Fatal(err)
				}
				got, gotSt, err := ft.View().ScanRects(context.Background(), "x", "y", []geom.Rect{r}, preds)
				if err != nil {
					t.Fatal(err)
				}
				if !equalInts(want.Indices(), got.Indices()) {
					t.Fatalf("trial %d table %q rect %v preds %v: results diverge", trial, name, r, preds)
				}
				if wantSt != gotSt {
					t.Fatalf("trial %d table %q: scan stats diverge: %+v vs %+v", trial, name, wantSt, gotSt)
				}
				sWant, err := ot.Scan(preds)
				if err != nil {
					t.Fatal(err)
				}
				sGot, err := ft.Scan(preds)
				if err != nil {
					t.Fatal(err)
				}
				if !equalInts(sWant.Indices(), sGot.Indices()) {
					t.Fatalf("trial %d table %q preds %v: Scan diverges", trial, name, preds)
				}
			}
		}
		// Sample lineage survived.
		if got, want := len(fresh.SamplesOf(names[0])), len(orig.SamplesOf(names[0])); got != want {
			t.Fatalf("trial %d: %d samples after restore, want %d", trial, got, want)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// validSnapshotBytes encodes a small but fully featured catalog: an
// indexed 3-column table with NaN rows and a tail, plus a sample with
// lineage. Deliberately tiny (~200 rows) so the corruption sweeps and
// the fuzzer get high throughput per exec.
func validSnapshotBytes(t testing.TB) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	st := store.New()
	tb, err := st.CreateTable("a_tbl", "x", "y", "v")
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	xs, ys, vs := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i], vs[i] = rng.NormFloat64()*20, rng.NormFloat64()*20, rng.Float64()*100
		if i%41 == 0 {
			xs[i] = math.NaN()
		}
	}
	if err := tb.BulkLoad(xs, ys, vs); err != nil {
		t.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	if err := tb.Append(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	sample, err := store.NewTable("a_tbl_vas", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if err := sample.BulkLoad(xs[:7:7], ys[:7:7]); err != nil {
		t.Fatal(err)
	}
	if err := sample.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	if err := st.PublishSample(sample, store.SampleMeta{
		Table: "a_tbl_vas", Source: "a_tbl", Method: "vas", XCol: "x", YCol: "y", Size: 7,
	}); err != nil {
		t.Fatal(err)
	}
	// Tombstones put a Dead section in the file, so the corruption
	// sweeps and the fuzzer exercise the tombstone decode path too.
	if _, err := tb.DeleteWhere([]store.Pred{{Column: "v", Min: 40, Max: 60}}); err != nil {
		t.Fatal(err)
	}
	cat := snapshotStore(t, st, []Provenance{{
		Table: "a_tbl", SourceHash: 0xfeedbeef, Rows: 123, Build: "sizes=5 density=false",
	}})
	var buf bytes.Buffer
	if err := Write(&buf, cat); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// validTreeSnapshotBytes is validSnapshotBytes with the base table
// forced onto the R-tree backend, so the file carries a tree-index
// section. Returns the bytes and the store they encode.
func validTreeSnapshotBytes(t testing.TB) ([]byte, *store.Store) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	st := store.New()
	tb, err := st.CreateTable("a_tbl", "x", "y", "v")
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	xs, ys, vs := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range xs {
		// Heavily clustered so a tree is the natural backend; a few NaN
		// rows keep the extras path in the file.
		xs[i], ys[i], vs[i] = rng.NormFloat64()*0.5, rng.NormFloat64()*0.5, rng.Float64()*100
		if i%10 == 0 {
			xs[i], ys[i] = rng.Float64()*200-100, rng.Float64()*200-100
		}
		if i%41 == 0 {
			xs[i] = math.NaN()
		}
	}
	if err := tb.BulkLoad(xs, ys, vs); err != nil {
		t.Fatal(err)
	}
	if err := tb.SetIndexBackend(store.BackendRTree); err != nil {
		t.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	if err := tb.Append(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.DeleteWhere([]store.Pred{{Column: "v", Min: 40, Max: 45}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, snapshotStore(t, st, nil)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), st
}

// TestFormatV3TreeCompat pins the tree-index section: a file with a
// tree-backed table round-trips (same scans, same kNN answers, backend
// preserved), and the same file as a v2 build would have written it is
// refused as version skew rather than misparsed.
func TestFormatV3TreeCompat(t *testing.T) {
	t.Run("tree round trip", func(t *testing.T) {
		data, orig := validTreeSnapshotBytes(t)
		cat, err := Read(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatalf("tree snapshot rejected: %v", err)
		}
		fresh := restoreStore(t, cat)
		fStats := fresh.IndexStats()
		if len(fStats.PerTable) != 1 || fStats.PerTable[0].Backend != store.BackendRTree {
			t.Fatalf("restored backend: %+v", fStats.PerTable)
		}
		ot, _ := orig.Table("a_tbl")
		ft, err := fresh.Table("a_tbl")
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for probe := 0; probe < 20; probe++ {
			r := geom.NewRect(
				geom.Pt(rng.NormFloat64()*30, rng.NormFloat64()*30),
				geom.Pt(rng.NormFloat64()*30, rng.NormFloat64()*30),
			)
			var preds []store.Pred
			if probe%2 == 1 {
				preds = append(preds, store.Pred{Column: "v", Min: 10, Max: 70})
			}
			want, wantSt, err := ot.View().ScanRects(context.Background(), "x", "y", []geom.Rect{r}, preds)
			if err != nil {
				t.Fatal(err)
			}
			got, gotSt, err := ft.View().ScanRects(context.Background(), "x", "y", []geom.Rect{r}, preds)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(want.Indices(), got.Indices()) || wantSt != gotSt {
				t.Fatalf("probe %d: scans diverge after restore (%+v vs %+v)", probe, wantSt, gotSt)
			}
		}
		// kNN must answer identically at the same query points.
		for probe := 0; probe < 20; probe++ {
			x, y := rng.NormFloat64()*10, rng.NormFloat64()*10
			wn, _, err := ot.View().Nearest(context.Background(), "x", "y", x, y, 7, nil)
			if err != nil {
				t.Fatal(err)
			}
			gn, _, err := ft.View().Nearest(context.Background(), "x", "y", x, y, 7, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(wn) != len(gn) {
				t.Fatalf("kNN at (%g,%g): %d vs %d results", x, y, len(wn), len(gn))
			}
			for i := range wn {
				if wn[i] != gn[i] {
					t.Fatalf("kNN at (%g,%g) result %d: %+v vs %+v", x, y, i, wn[i], gn[i])
				}
			}
		}
	})
	t.Run("tree section in v2 rejected", func(t *testing.T) {
		data, _ := validTreeSnapshotBytes(t)
		data = downgrade(t, data, 2)
		if _, err := Read(bytes.NewReader(data), int64(len(data))); !errors.Is(err, ErrVersionSkew) {
			t.Fatalf("tree-bearing v2 file loaded: err %v, want ErrVersionSkew", err)
		}
	})
}

// TestFormatV1Compat: a tombstone-bearing file re-encoded as a v1 build
// would have written it is refused as version skew, never loaded.
func TestFormatV1Compat(t *testing.T) {
	t.Run("tombstone section in v1 rejected", func(t *testing.T) {
		data := downgrade(t, validSnapshotBytes(t), 1) // has tombstones
		if _, err := Read(bytes.NewReader(data), int64(len(data))); !errors.Is(err, ErrVersionSkew) {
			t.Fatalf("tombstone-bearing v1 file loaded: err %v, want ErrVersionSkew", err)
		}
	})
}

// TestDecodeRejectsTreeCorruption repeats the corruption treatment on a
// tree-bearing file: truncations at every boundary region and
// single-bit flips anywhere must error — never panic, never publish.
func TestDecodeRejectsTreeCorruption(t *testing.T) {
	valid, _ := validTreeSnapshotBytes(t)
	if _, err := Read(bytes.NewReader(valid), int64(len(valid))); err != nil {
		t.Fatalf("valid tree snapshot rejected: %v", err)
	}
	t.Run("truncated", func(t *testing.T) {
		for cut := 0; cut < len(valid); cut += 1 + cut/7 {
			data := valid[:cut]
			cat, err := Read(bytes.NewReader(data), int64(len(data)))
			if err == nil {
				t.Fatalf("truncation at %d/%d bytes was accepted (%d tables)", cut, len(valid), len(cat.Tables))
			}
		}
	})
	t.Run("bit flips", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 400; trial++ {
			data := append([]byte(nil), valid...)
			pos := rng.Intn(len(data))
			data[pos] ^= 1 << rng.Intn(8)
			cat, err := Read(bytes.NewReader(data), int64(len(data)))
			if err == nil {
				t.Fatalf("bit flip at byte %d was accepted (%d tables)", pos, len(cat.Tables))
			}
		}
	})
	// Structurally intact but semantically hostile: flip bits in the
	// decoded tree arrays and require TableFromSnapshot to reject or
	// survive them — the fuzz invariant, pinned on the real payload.
	t.Run("mutated tree structure", func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		for trial := 0; trial < 200; trial++ {
			cat, err := Read(bytes.NewReader(valid), int64(len(valid)))
			if err != nil {
				t.Fatal(err)
			}
			for i := range cat.Tables {
				for j := range cat.Tables[i].TreeIndexes {
					ix := &cat.Tables[i].TreeIndexes[j]
					switch rng.Intn(6) {
					case 0:
						if len(ix.RowID) > 0 {
							ix.RowID[rng.Intn(len(ix.RowID))] = int32(rng.Intn(1 << 20))
						}
					case 1:
						if len(ix.LeafOff) > 0 {
							ix.LeafOff[rng.Intn(len(ix.LeafOff))] += int32(rng.Intn(64)) - 32
						}
					case 2:
						if len(ix.NodeLo) > 0 {
							k := rng.Intn(len(ix.NodeLo))
							ix.NodeLo[k] = int32(rng.Intn(1 << 16))
							ix.NodeHi[k] = int32(rng.Intn(1 << 16))
						}
					case 3:
						if len(ix.NodeLeafLo) > 0 {
							k := rng.Intn(len(ix.NodeLeafLo))
							ix.NodeLeafLo[k] = int32(rng.Intn(1 << 16))
							ix.NodeLeafHi[k] = int32(rng.Intn(1 << 16))
						}
					case 4:
						if len(ix.NodeLeafKids) > 0 {
							k := rng.Intn(len(ix.NodeLeafKids))
							ix.NodeLeafKids[k] = !ix.NodeLeafKids[k]
						}
					case 5:
						ix.NumRows += rng.Intn(40) - 20
					}
				}
				// Must reject or produce a well-formed table; the scan
				// below panics (failing the test) if validation let a
				// descent-breaking structure through.
				tb, err := store.TableFromSnapshot(cat.Tables[i])
				if err != nil {
					continue
				}
				if _, _, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{{MinX: -5, MinY: -5, MaxX: 5, MaxY: 5}}, nil); err != nil {
					t.Fatal(err)
				}
				if _, _, err := tb.View().Nearest(context.Background(), "x", "y", 0, 0, 3, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// TestSnapshotTombstoneRoundTrip is the pinned (non-property) case: a
// deleted slice stays deleted across Save→Load, and the restored table
// serves exactly the survivors.
func TestSnapshotTombstoneRoundTrip(t *testing.T) {
	data := validSnapshotBytes(t)
	cat, err := Read(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	fresh := restoreStore(t, cat)
	ft, err := fresh.Table("a_tbl")
	if err != nil {
		t.Fatal(err)
	}
	if ft.LiveRows() >= ft.NumRows() {
		t.Fatalf("restored table lost its tombstones: %d live of %d", ft.LiveRows(), ft.NumRows())
	}
	rs, err := ft.Scan(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != ft.LiveRows() {
		t.Fatalf("Scan returned %d rows, LiveRows says %d", rs.Len(), ft.LiveRows())
	}
	vs, err := ft.Column("v")
	if err != nil {
		t.Fatal(err)
	}
	rs.ForEach(func(r int) {
		if vs[r] >= 40 && vs[r] <= 60 {
			t.Fatalf("deleted row %d (v=%g) served after restore", r, vs[r])
		}
	})
}

func TestProvenanceRoundTrip(t *testing.T) {
	data := validSnapshotBytes(t)
	cat, err := Read(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Provenance) != 1 {
		t.Fatalf("%d provenance records", len(cat.Provenance))
	}
	p := cat.Provenance[0]
	if p.Table != "a_tbl" || p.SourceHash != 0xfeedbeef || p.Rows != 123 || p.Build != "sizes=5 density=false" {
		t.Fatalf("provenance diverged: %+v", p)
	}
}

// TestDecodeRejectsCorruption: bad magic, version skew, truncations at
// every boundary region, and single-bit flips anywhere in the file must
// all error — never panic, never return a catalog.
func TestDecodeRejectsCorruption(t *testing.T) {
	valid := validSnapshotBytes(t)
	if _, err := Read(bytes.NewReader(valid), int64(len(valid))); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}

	t.Run("bad magic", func(t *testing.T) {
		data := append([]byte(nil), valid...)
		data[0] = 'X'
		if _, err := Read(bytes.NewReader(data), int64(len(data))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("version skew", func(t *testing.T) {
		// Older and newer versions alike: the decoder reads only the
		// version this build writes.
		for _, v := range []byte{1, 2, 3, FormatVersion + 1} {
			data := append([]byte(nil), valid...)
			data[4] = v // version field, little-endian low byte
			_, err := Read(bytes.NewReader(data), int64(len(data)))
			if !errors.Is(err, ErrVersionSkew) {
				t.Fatalf("v%d: err = %v, want ErrVersionSkew", v, err)
			}
		}
	})
	t.Run("empty file", func(t *testing.T) {
		if _, err := Read(bytes.NewReader(nil), 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for cut := 0; cut < len(valid); cut += 1 + cut/7 {
			data := valid[:cut]
			cat, err := Read(bytes.NewReader(data), int64(len(data)))
			if err == nil {
				t.Fatalf("truncation at %d/%d bytes was accepted (%d tables)", cut, len(valid), len(cat.Tables))
			}
		}
	})
	t.Run("bit flips", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 400; trial++ {
			data := append([]byte(nil), valid...)
			pos := rng.Intn(len(data))
			data[pos] ^= 1 << rng.Intn(8)
			cat, err := Read(bytes.NewReader(data), int64(len(data)))
			if err == nil {
				// The only header field a flip may legally survive in is
				// one that CRC does not cover AND that is still
				// structurally valid — there is none: magic, version,
				// and section framing are all validated, payloads are
				// checksummed.
				t.Fatalf("bit flip at byte %d was accepted (%d tables)", pos, len(cat.Tables))
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		data := append(append([]byte(nil), valid...), 0xAB)
		if _, err := Read(bytes.NewReader(data), int64(len(data))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("hostile section length", func(t *testing.T) {
		// Rewrite the first section's length to claim far more bytes
		// than the file holds; must fail fast without allocating it.
		data := append([]byte(nil), valid...)
		for i := 16; i < 24 && i < len(data); i++ { // section payload length field
			data[i] = 0xFF
		}
		if _, err := Read(bytes.NewReader(data), int64(len(data))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cat.snap")
	rng := rand.New(rand.NewSource(5))
	st, _ := randomStore(t, rng)
	if err := Save(path, snapshotStore(t, st, nil)); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a second save; no temp files may remain.
	if err := Save(path, snapshotStore(t, st, nil)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "cat.snap" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want just cat.snap", names)
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}
}

func TestHashColumns(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1, 2, 3}
	if HashColumns(a) != HashColumns(b) {
		t.Fatal("equal columns hash differently")
	}
	if HashColumns(a) == HashColumns(a[:2]) {
		t.Fatal("prefix collision")
	}
	if HashColumns([]float64{1, 2, 3}) == HashColumns([]float64{1, 2, 4}) {
		t.Fatal("value change not detected")
	}
	// Length folding keeps column-boundary shifts distinct.
	if HashColumns([]float64{1, 2}, []float64{3}) == HashColumns([]float64{1}, []float64{2, 3}) {
		t.Fatal("column boundary shift not detected")
	}
	if HashColumns([]float64{math.NaN()}) != HashColumns([]float64{math.NaN()}) {
		t.Fatal("NaN hashing is unstable")
	}
}
