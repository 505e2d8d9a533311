// Package snapshot defines the on-disk catalog snapshot format: a
// versioned, checksummed, little-endian binary encoding of everything a
// serving store holds — each table's column schema and data, the
// published generation's CSR grid indexes with their per-cell zone
// maps, the sample lineage connecting sample tables to their sources,
// and dataset provenance (source hash, row count, build options) so a
// loader can tell a fresh snapshot from a stale one and rebuild instead
// of silently serving outdated samples.
//
// Layout (everything little-endian):
//
//	header:  magic "VCAT" | uint32 format version | uint32 section count
//	section: uint32 kind | uint64 payload length | payload | uint32 CRC32(payload)
//
// Section kinds: 1 = catalog metadata (sample lineage + provenance +
// save epoch), 2 = one table, 3 = one table's tombstone set, 4 = one
// table's R-tree indexes. Payloads are encoded with internal/binio (the same
// codec the dataset files use). Every section carries its own IEEE
// CRC32, so a flipped bit anywhere is detected before any of the
// section's content is trusted; length prefixes are validated against
// the bytes actually remaining, so a truncated or hostile file can
// never force a large allocation. Save writes to a temp file in the
// destination directory and renames it into place, so a crash mid-write
// leaves either the old snapshot or none — never a torn one.
//
// Decoding here is purely structural (framing, checksums, bounds);
// semantic validation of the index payloads — offset monotonicity, row
// id ranges, zone-map sizing — happens in store.TableFromSnapshot,
// which refuses to materialize a table that violates any invariant the
// probe machinery relies on. A loader must run both before publishing
// anything.
package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"

	"repro/internal/binio"
	"repro/internal/fault"
	"repro/internal/store"
)

// fsys is the filesystem every snapshot and tail-log operation goes
// through. Production uses the zero-overhead passthrough; tests swap in
// a fault.Injector via SetFS to script errors, torn writes, and crash
// points at any file-op site.
var fsys fault.FS = fault.OS{}

// SetFS replaces the package's filesystem and returns a restore
// function. It is a test seam: callers are expected to run serially
// (the torture suite does) — there is no synchronization against
// in-flight saves.
func SetFS(f fault.FS) (restore func()) {
	old := fsys
	fsys = f
	return func() { fsys = old }
}

const (
	// Magic identifies a catalog snapshot file.
	Magic = "VCAT"
	// FormatVersion is the only snapshot layout this build reads or
	// writes. Bump it on any layout change: Read refuses every other
	// version with ErrVersionSkew rather than misparsing it, and the
	// caller rebuilds and re-saves.
	FormatVersion = 4

	sectionCatalog   = 1
	sectionTable     = 2
	sectionTombstone = 3
	sectionTree      = 4

	// Structural caps: generous for any real catalog, small enough that
	// a hostile header cannot direct absurd loops or allocations (sizes
	// are additionally bounded by the actual file size via binio).
	maxSections = 1 << 20
	maxNameLen  = 1 << 12
	maxColumns  = 1 << 12
	maxIndexes  = 1 << 8
	maxEntries  = 1 << 20 // samples / provenance records per catalog
)

// ErrCorrupt wraps every decode failure caused by the file's content
// (as opposed to I/O errors reaching it).
var ErrCorrupt = errors.New("snapshot: corrupt or invalid snapshot")

// Provenance records where one base table's data came from and how its
// samples were built, so a loader can detect staleness: a snapshot is
// fresh exactly when the hash, row count, and build spec of the data it
// would otherwise rebuild match what the snapshot captured.
type Provenance struct {
	// Table is the base table this record describes.
	Table string
	// SourceHash is HashColumns over the table's column data at save
	// time.
	SourceHash uint64
	// Rows is the base table's row count.
	Rows int64
	// Build is the canonical build-options spec (sample sizes, density,
	// passes, variant, kernel) the catalog's samples were built with.
	Build string
}

// Catalog is the in-memory form of one snapshot file: fully
// materialized table generations plus the lineage and provenance
// metadata.
type Catalog struct {
	Tables     []store.TableSnapshot
	Samples    []store.SampleMeta
	Provenance []Provenance
	// Epoch is the save generation this snapshot captured: incremented
	// on every full save (so at least 1), stamped into the tail log
	// written against the saved base. On load, a tail whose epoch
	// predates the snapshot's is a leftover the save already folded in
	// (the crash window between writing the snapshot and removing the
	// tail) and must be discarded, not replayed — replay would duplicate
	// its rows.
	Epoch uint64
}

// HashColumns fingerprints column data for provenance: FNV-1a folded
// word-wise over the IEEE-754 bits of every value (word-wise rather
// than byte-wise keeps hashing a 1M-row table in the low milliseconds;
// this is a staleness check, not a cryptographic commitment).
func HashColumns(cols ...[]float64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, col := range cols {
		h ^= uint64(len(col))
		h *= prime64
		for _, v := range col {
			h ^= math.Float64bits(v)
			h *= prime64
		}
	}
	return h
}

// Write encodes c to w in the snapshot format.
func Write(w io.Writer, c *Catalog) error {
	bw := binio.NewWriter(w)
	bw.Raw([]byte(Magic))
	bw.U32(FormatVersion)
	ntomb, ntree := 0, 0
	for _, ts := range c.Tables {
		if len(ts.Dead) > 0 {
			ntomb++
		}
		if len(ts.TreeIndexes) > 0 {
			ntree++
		}
	}
	bw.U32(uint32(1 + len(c.Tables) + ntomb + ntree))
	var payload bytes.Buffer
	var encErr error

	encodeSection := func(kind uint32, encode func(*binio.Writer)) {
		if encErr != nil {
			return
		}
		payload.Reset()
		pw := binio.NewWriter(&payload)
		encode(pw)
		if encErr = pw.Flush(); encErr != nil {
			return
		}
		bw.U32(kind)
		bw.U64(uint64(payload.Len()))
		bw.Raw(payload.Bytes())
		bw.U32(crc32.ChecksumIEEE(payload.Bytes()))
	}

	encodeSection(sectionCatalog, func(pw *binio.Writer) {
		pw.U32(uint32(len(c.Samples)))
		for _, m := range c.Samples {
			pw.String(m.Table)
			pw.String(m.Source)
			pw.String(m.Method)
			pw.String(m.XCol)
			pw.String(m.YCol)
			pw.U64(uint64(m.Size))
			var flags uint32
			if m.HasDensity {
				flags |= 1
			}
			pw.U32(flags)
		}
		pw.U32(uint32(len(c.Provenance)))
		for _, p := range c.Provenance {
			pw.String(p.Table)
			pw.U64(p.SourceHash)
			pw.U64(uint64(p.Rows))
			pw.String(p.Build)
		}
		pw.U64(c.Epoch)
	})
	for _, ts := range c.Tables {
		encodeSection(sectionTable, func(pw *binio.Writer) {
			pw.String(ts.Name)
			pw.U32(uint32(len(ts.Columns)))
			for _, col := range ts.Columns {
				pw.String(col)
			}
			pw.U64(uint64(ts.NumRows))
			for _, col := range ts.Cols {
				pw.F64s(col)
			}
			pw.U32(uint32(len(ts.Indexes)))
			for _, ix := range ts.Indexes {
				pw.U32(uint32(ix.XCol))
				pw.U32(uint32(ix.YCol))
				pw.F64(ix.Bounds.MinX)
				pw.F64(ix.Bounds.MinY)
				pw.F64(ix.Bounds.MaxX)
				pw.F64(ix.Bounds.MaxY)
				pw.U32(uint32(ix.NX))
				pw.U32(uint32(ix.NY))
				pw.F64(ix.CellW)
				pw.F64(ix.CellH)
				pw.U64(uint64(ix.NumRows))
				pw.I32s(ix.CellOff)
				pw.I32s(ix.RowID)
				pw.I32s(ix.Extra)
				pw.F64s(ix.ZMin)
				pw.F64s(ix.ZMax)
				pw.Bools(ix.ZNaN)
			}
		})
		// Tree indexes and tombstones ride in their own sections, so a
		// grid-only table with no deletions is one table section.
		if len(ts.TreeIndexes) > 0 {
			encodeSection(sectionTree, func(pw *binio.Writer) {
				pw.String(ts.Name)
				pw.U32(uint32(len(ts.TreeIndexes)))
				for _, ix := range ts.TreeIndexes {
					pw.U32(uint32(ix.XCol))
					pw.U32(uint32(ix.YCol))
					pw.F64(ix.Bounds.MinX)
					pw.F64(ix.Bounds.MinY)
					pw.F64(ix.Bounds.MaxX)
					pw.F64(ix.Bounds.MaxY)
					pw.U32(uint32(ix.NX))
					pw.U32(uint32(ix.NY))
					pw.F64(ix.CellW)
					pw.F64(ix.CellH)
					pw.U64(uint64(ix.NumRows))
					pw.F64(ix.OccP99)
					pw.F64(ix.Skew)
					pw.I32s(ix.RowID)
					pw.I32s(ix.LeafOff)
					pw.F64s(ix.LeafMBR)
					pw.I32s(ix.Extra)
					pw.F64s(ix.NodeMBR)
					pw.I32s(ix.NodeLo)
					pw.I32s(ix.NodeHi)
					pw.I32s(ix.NodeLeafLo)
					pw.I32s(ix.NodeLeafHi)
					pw.Bools(ix.NodeLeafKids)
					pw.F64s(ix.ZMin)
					pw.F64s(ix.ZMax)
					pw.Bools(ix.ZNaN)
					pw.F64s(ix.NZMin)
					pw.F64s(ix.NZMax)
					pw.Bools(ix.NZNaN)
				}
			})
		}
		if len(ts.Dead) > 0 {
			encodeSection(sectionTombstone, func(pw *binio.Writer) {
				pw.String(ts.Name)
				pw.I32s(ts.Dead)
			})
		}
	}
	if encErr != nil {
		return encErr
	}
	return bw.Flush()
}

// Read decodes a snapshot from r, which must supply exactly size bytes.
// Any structural problem — bad magic, version skew, checksum mismatch,
// truncation, over-claimed lengths, trailing bytes — returns an error
// wrapping ErrCorrupt (except version skew, which wraps
// ErrVersionSkew); no partially decoded catalog is ever returned. The
// caller must still pass each table through store.TableFromSnapshot for
// semantic validation before serving it.
func Read(r io.Reader, size int64) (*Catalog, error) {
	br := binio.NewReader(r, size)
	magic := make([]byte, len(Magic))
	br.Raw(magic)
	if err := br.Err(); err != nil {
		return nil, corrupt("reading magic: %v", err)
	}
	if string(magic) != Magic {
		return nil, corrupt("bad magic %q", magic)
	}
	version := br.U32()
	nsections := br.U32()
	if err := br.Err(); err != nil {
		return nil, corrupt("reading header: %v", err)
	}
	if version != FormatVersion {
		return nil, fmt.Errorf("%w: file is format v%d, this build reads and writes only v%d",
			ErrVersionSkew, version, FormatVersion)
	}
	if nsections < 1 || nsections > maxSections {
		return nil, corrupt("section count %d out of range [1,%d]", nsections, maxSections)
	}
	cat := &Catalog{}
	sawCatalog := false
	// Tombstone and tree-index sections reference their table by name;
	// collect them and attach after every section is read, so a file
	// that orders them before their table still loads.
	tombstones := make(map[string][]int32)
	trees := make(map[string][]store.TreeIndexSnapshot)
	for si := uint32(0); si < nsections; si++ {
		kind := br.U32()
		plen := br.U64()
		if err := br.Err(); err != nil {
			return nil, corrupt("section %d header: %v", si, err)
		}
		// +4 for the trailing CRC that must still follow the payload.
		if plen > math.MaxInt64-4 || int64(plen)+4 > br.Remaining() {
			return nil, corrupt("section %d claims %d payload bytes, %d remain", si, plen, br.Remaining())
		}
		payload := make([]byte, plen)
		br.Raw(payload)
		sum := br.U32()
		if err := br.Err(); err != nil {
			return nil, corrupt("section %d: %v", si, err)
		}
		if got := crc32.ChecksumIEEE(payload); got != sum {
			return nil, corrupt("section %d checksum mismatch: %08x != %08x", si, got, sum)
		}
		pr := binio.NewReader(bytes.NewReader(payload), int64(len(payload)))
		switch kind {
		case sectionCatalog:
			if sawCatalog {
				return nil, corrupt("duplicate catalog section")
			}
			sawCatalog = true
			if err := decodeCatalogSection(pr, cat); err != nil {
				return nil, err
			}
		case sectionTable:
			ts, err := decodeTableSection(pr)
			if err != nil {
				return nil, err
			}
			cat.Tables = append(cat.Tables, ts)
		case sectionTombstone:
			name := pr.String(maxNameLen)
			dead := pr.I32s()
			if err := pr.Err(); err != nil {
				return nil, corrupt("tombstone section %d: %v", si, err)
			}
			if _, dup := tombstones[name]; dup {
				return nil, corrupt("duplicate tombstone section for table %q", name)
			}
			tombstones[name] = dead
		case sectionTree:
			name, tixs, err := decodeTreeSection(pr, si)
			if err != nil {
				return nil, err
			}
			if _, dup := trees[name]; dup {
				return nil, corrupt("duplicate tree-index section for table %q", name)
			}
			trees[name] = tixs
		default:
			return nil, corrupt("section %d has unknown kind %d", si, kind)
		}
		if pr.Remaining() != 0 {
			return nil, corrupt("section %d has %d trailing bytes", si, pr.Remaining())
		}
	}
	if !sawCatalog {
		return nil, corrupt("no catalog section")
	}
	if br.Remaining() != 0 {
		return nil, corrupt("%d trailing bytes after the last section", br.Remaining())
	}
	for name, dead := range tombstones {
		attached := false
		for i := range cat.Tables {
			if cat.Tables[i].Name == name {
				cat.Tables[i].Dead = dead
				attached = true
				break
			}
		}
		if !attached {
			return nil, corrupt("tombstone section for unknown table %q", name)
		}
	}
	for name, tixs := range trees {
		attached := false
		for i := range cat.Tables {
			if cat.Tables[i].Name == name {
				cat.Tables[i].TreeIndexes = tixs
				attached = true
				break
			}
		}
		if !attached {
			return nil, corrupt("tree-index section for unknown table %q", name)
		}
	}
	return cat, nil
}

// ErrVersionSkew is wrapped by Read and LoadTail when a file's format
// version is not the one this build writes — the cue to rebuild and
// re-save rather than report corruption.
var ErrVersionSkew = errors.New("snapshot: format version skew")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

func decodeCatalogSection(pr *binio.Reader, cat *Catalog) error {
	nsamples := pr.U32()
	if pr.Err() == nil && nsamples > maxEntries {
		return corrupt("catalog claims %d samples, limit %d", nsamples, maxEntries)
	}
	for i := uint32(0); i < nsamples && pr.Err() == nil; i++ {
		var m store.SampleMeta
		m.Table = pr.String(maxNameLen)
		m.Source = pr.String(maxNameLen)
		m.Method = pr.String(maxNameLen)
		m.XCol = pr.String(maxNameLen)
		m.YCol = pr.String(maxNameLen)
		size := pr.U64()
		flags := pr.U32()
		if pr.Err() != nil {
			break
		}
		if size > math.MaxInt32 {
			return corrupt("sample %q claims size %d", m.Table, size)
		}
		m.Size = int(size)
		m.HasDensity = flags&1 != 0
		cat.Samples = append(cat.Samples, m)
	}
	nprov := pr.U32()
	if pr.Err() == nil && nprov > maxEntries {
		return corrupt("catalog claims %d provenance records, limit %d", nprov, maxEntries)
	}
	for i := uint32(0); i < nprov && pr.Err() == nil; i++ {
		var p Provenance
		p.Table = pr.String(maxNameLen)
		p.SourceHash = pr.U64()
		rows := pr.U64()
		p.Build = pr.String(1 << 16)
		if pr.Err() != nil {
			break
		}
		if rows > math.MaxInt64 {
			return corrupt("provenance %q claims %d rows", p.Table, rows)
		}
		p.Rows = int64(rows)
		cat.Provenance = append(cat.Provenance, p)
	}
	cat.Epoch = pr.U64()
	if err := pr.Err(); err != nil {
		return corrupt("catalog section: %v", err)
	}
	return nil
}

func decodeTableSection(pr *binio.Reader) (store.TableSnapshot, error) {
	var ts store.TableSnapshot
	ts.Name = pr.String(maxNameLen)
	ncols := pr.U32()
	if pr.Err() == nil && ncols > maxColumns {
		return ts, corrupt("table %q claims %d columns, limit %d", ts.Name, ncols, maxColumns)
	}
	for i := uint32(0); i < ncols && pr.Err() == nil; i++ {
		ts.Columns = append(ts.Columns, pr.String(maxNameLen))
	}
	nrows := pr.U64()
	if pr.Err() == nil && nrows > math.MaxInt32 {
		return ts, corrupt("table %q claims %d rows", ts.Name, nrows)
	}
	ts.NumRows = int(nrows)
	for i := uint32(0); i < ncols && pr.Err() == nil; i++ {
		col := pr.F64s()
		if pr.Err() != nil {
			break
		}
		if len(col) != ts.NumRows {
			return ts, corrupt("table %q column %d has %d rows, header says %d", ts.Name, i, len(col), ts.NumRows)
		}
		ts.Cols = append(ts.Cols, col)
	}
	nindexes := pr.U32()
	if pr.Err() == nil && nindexes > maxIndexes {
		return ts, corrupt("table %q claims %d indexes, limit %d", ts.Name, nindexes, maxIndexes)
	}
	for i := uint32(0); i < nindexes && pr.Err() == nil; i++ {
		var ix store.IndexSnapshot
		ix.XCol = int(int32(pr.U32()))
		ix.YCol = int(int32(pr.U32()))
		ix.Bounds.MinX = pr.F64()
		ix.Bounds.MinY = pr.F64()
		ix.Bounds.MaxX = pr.F64()
		ix.Bounds.MaxY = pr.F64()
		ix.NX = int(int32(pr.U32()))
		ix.NY = int(int32(pr.U32()))
		ix.CellW = pr.F64()
		ix.CellH = pr.F64()
		n := pr.U64()
		if pr.Err() != nil {
			break
		}
		if n > math.MaxInt32 {
			return ts, corrupt("table %q index %d claims %d rows", ts.Name, i, n)
		}
		ix.NumRows = int(n)
		ix.CellOff = pr.I32s()
		ix.RowID = pr.I32s()
		ix.Extra = pr.I32s()
		ix.ZMin = pr.F64s()
		ix.ZMax = pr.F64s()
		ix.ZNaN = pr.Bools()
		if pr.Err() != nil {
			break
		}
		ts.Indexes = append(ts.Indexes, ix)
	}
	if err := pr.Err(); err != nil {
		return ts, corrupt("table %q section: %v", ts.Name, err)
	}
	return ts, nil
}

func decodeTreeSection(pr *binio.Reader, si uint32) (string, []store.TreeIndexSnapshot, error) {
	name := pr.String(maxNameLen)
	ntree := pr.U32()
	if pr.Err() == nil && ntree > maxIndexes {
		return name, nil, corrupt("table %q claims %d tree indexes, limit %d", name, ntree, maxIndexes)
	}
	var tixs []store.TreeIndexSnapshot
	for i := uint32(0); i < ntree && pr.Err() == nil; i++ {
		var ix store.TreeIndexSnapshot
		ix.XCol = int(int32(pr.U32()))
		ix.YCol = int(int32(pr.U32()))
		ix.Bounds.MinX = pr.F64()
		ix.Bounds.MinY = pr.F64()
		ix.Bounds.MaxX = pr.F64()
		ix.Bounds.MaxY = pr.F64()
		ix.NX = int(int32(pr.U32()))
		ix.NY = int(int32(pr.U32()))
		ix.CellW = pr.F64()
		ix.CellH = pr.F64()
		n := pr.U64()
		if pr.Err() != nil {
			break
		}
		if n > math.MaxInt32 {
			return name, nil, corrupt("table %q tree index %d claims %d rows", name, i, n)
		}
		ix.NumRows = int(n)
		ix.OccP99 = pr.F64()
		ix.Skew = pr.F64()
		ix.RowID = pr.I32s()
		ix.LeafOff = pr.I32s()
		ix.LeafMBR = pr.F64s()
		ix.Extra = pr.I32s()
		ix.NodeMBR = pr.F64s()
		ix.NodeLo = pr.I32s()
		ix.NodeHi = pr.I32s()
		ix.NodeLeafLo = pr.I32s()
		ix.NodeLeafHi = pr.I32s()
		ix.NodeLeafKids = pr.Bools()
		ix.ZMin = pr.F64s()
		ix.ZMax = pr.F64s()
		ix.ZNaN = pr.Bools()
		ix.NZMin = pr.F64s()
		ix.NZMax = pr.F64s()
		ix.NZNaN = pr.Bools()
		if pr.Err() != nil {
			break
		}
		tixs = append(tixs, ix)
	}
	if err := pr.Err(); err != nil {
		return name, nil, corrupt("tree-index section %d (table %q): %v", si, name, err)
	}
	return name, tixs, nil
}

// Save atomically writes c to path: the bytes go to a temp file in the
// same directory, are synced, and the temp file is renamed over path.
// A crash at any point leaves the previous snapshot (or no file) in
// place — never a torn one.
func Save(path string, c *Catalog) error {
	dir := filepath.Dir(path)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("snapshot: create directory: %w", err)
	}
	f, err := fsys.CreateTemp(dir, ".snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("snapshot: create temp file: %w", err)
	}
	tmp := f.Name()
	cleanup := func() {
		f.Close()
		fsys.Remove(tmp)
	}
	if err := Write(f, c); err != nil {
		cleanup()
		return fmt.Errorf("snapshot: write: %w", err)
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("snapshot: sync: %w", err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("snapshot: close: %w", err)
	}
	// CreateTemp makes the file 0600; a snapshot is a serving artifact
	// (the next process may run as a different user), not a secret.
	if err := fsys.Chmod(tmp, 0o644); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("snapshot: chmod: %w", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("snapshot: rename into place: %w", err)
	}
	return nil
}

// Load reads the snapshot at path. The file's size bounds every
// allocation the decoder makes.
func Load(path string) (*Catalog, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	cat, err := Read(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", path, err)
	}
	return cat, nil
}
