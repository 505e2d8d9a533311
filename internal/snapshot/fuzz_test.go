package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/store"
)

// fuzzSeeds are the hand-picked decoder inputs: a valid snapshot, the
// interesting mutants of it, and the trivial degenerate inputs. They
// are both f.Add seeds and the source of the checked-in corpus under
// testdata/fuzz (regenerate with WRITE_FUZZ_CORPUS=1 go test -run
// TestWriteFuzzCorpus ./internal/snapshot).
func fuzzSeeds(t testing.TB) [][]byte {
	valid := validSnapshotBytes(t)
	truncated := valid[:len(valid)*3/5]
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x10
	skewed := append([]byte(nil), valid...)
	skewed[4] = FormatVersion + 1 // future format version
	downgraded := append([]byte(nil), valid...)
	downgraded[4] = 1 // an older format version: rejected as skew
	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'Z'
	hostileLen := append([]byte(nil), valid...)
	for i := 16; i < 24; i++ {
		hostileLen[i] = 0xFF
	}
	tree, _ := validTreeSnapshotBytes(t)
	treeTruncated := tree[:len(tree)*3/5]
	treeFlipped := append([]byte(nil), tree...)
	treeFlipped[len(treeFlipped)/2] ^= 0x10
	treeDowngraded := append([]byte(nil), tree...)
	treeDowngraded[4] = 2 // an older format version: rejected as skew
	return [][]byte{
		valid,
		truncated,
		flipped,
		skewed,
		downgraded,
		badMagic,
		hostileLen,
		[]byte(Magic),
		nil,
		tree,
		treeTruncated,
		treeFlipped,
		treeDowngraded,
	}
}

// FuzzSnapshotDecode drives the whole cold-start decode path with
// arbitrary bytes: framing (Read) plus semantic validation
// (store.TableFromSnapshot) plus the atomic batch publish. The
// invariant is absence of panics and of partial state: any input either
// yields a fully valid catalog or an error.
func FuzzSnapshotDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cat, err := Read(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			if cat != nil {
				t.Fatal("decode returned both a catalog and an error")
			}
			return
		}
		// Structurally decoded: semantic validation must either accept
		// a table or reject it with an error — never panic.
		tables := make([]*store.Table, 0, len(cat.Tables))
		for _, ts := range cat.Tables {
			tb, err := store.TableFromSnapshot(ts)
			if err != nil {
				continue
			}
			tables = append(tables, tb)
		}
		st := store.New()
		_ = st.PublishCatalog(tables, cat.Samples)
		// A catalog that decoded cleanly must re-encode cleanly (the
		// save path after a load-modify cycle).
		if err := Write(new(bytes.Buffer), cat); err != nil {
			t.Fatalf("re-encode of a decoded catalog failed: %v", err)
		}
	})
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpora of both
// fuzzers. Guarded by an env var so normal test runs (and CI) never
// rewrite testdata.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSnapshotDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range fuzzSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A handful of random mutants of the valid snapshot widen the
	// starting surface beyond the hand-picked cases.
	rng := rand.New(rand.NewSource(1))
	valid := validSnapshotBytes(t)
	for i := 0; i < 4; i++ {
		mutant := append([]byte(nil), valid...)
		for j := 0; j < 1+rng.Intn(8); j++ {
			mutant[rng.Intn(len(mutant))] ^= byte(1 << rng.Intn(8))
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(mutant)))
		name := filepath.Join(dir, fmt.Sprintf("mutant-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dir = filepath.Join("testdata", "fuzz", "FuzzTailDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, seed := range tailFuzzSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed.data)))
		if err := os.WriteFile(filepath.Join(dir, seed.name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// tailFrame is one tail log: the header for version, then each payload
// framed with its length and a correct CRC, so a hostile count inside a
// payload reaches the record decoder instead of failing the checksum.
func tailFrame(version uint32, payloads ...[]byte) []byte {
	out := append([]byte(nil), TailMagic...)
	out = binary.LittleEndian.AppendUint32(out, version)
	out = binary.LittleEndian.AppendUint64(out, 7) // base epoch
	for _, p := range payloads {
		out = binary.LittleEndian.AppendUint64(out, uint64(len(p)))
		out = append(out, p...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
	}
	return out
}

// tailFuzzSeeds are FuzzTailDecode's named seeds, and the checked-in
// corpus under testdata/fuzz/FuzzTailDecode: a valid log of one append
// and one delete record, and one mutant per way a restart can find the
// log damaged.
func tailFuzzSeeds(t testing.TB) []namedSeed {
	appendRec, err := encodeTailAppend("gps", [][]float64{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	deleteRec, err := encodeTailDelete("gps", []TailPred{{Col: "x", Min: 0, Max: 1}})
	if err != nil {
		t.Fatal(err)
	}
	valid := tailFrame(TailFormatVersion, appendRec, deleteRec)

	flippedCRC := append([]byte(nil), valid...)
	flippedCRC[len(flippedCRC)-1] ^= 0x01
	hostileCols := append([]byte(nil), appendRec...)
	binary.LittleEndian.PutUint32(hostileCols[4+4+3:], math.MaxUint32) // kind | name | ncols
	hostileRows := append([]byte(nil), appendRec...)
	binary.LittleEndian.PutUint64(hostileRows[4+4+3+4:], 1<<40) // … | rows
	hostilePreds := append([]byte(nil), deleteRec...)
	binary.LittleEndian.PutUint32(hostilePreds[4+4+3:], maxColumns) // kind | name | npreds
	unknownKind := append([]byte(nil), deleteRec...)
	binary.LittleEndian.PutUint32(unknownKind, 7)
	return []namedSeed{
		{"valid", valid},
		{"torn-final-record", valid[:len(valid)-5]},
		{"flipped-crc", flippedCRC},
		{"hostile-col-count", tailFrame(TailFormatVersion, hostileCols)},
		{"hostile-row-count", tailFrame(TailFormatVersion, hostileRows)},
		{"hostile-pred-count", tailFrame(TailFormatVersion, appendRec, hostilePreds)},
		{"unknown-kind", tailFrame(TailFormatVersion, unknownKind)},
		{"version-skew", tailFrame(TailFormatVersion+1, appendRec)},
		{"torn-header", valid[:tailHeaderLen-3]},
	}
}

type namedSeed struct {
	name string
	data []byte
}

// FuzzTailDecode drives LoadTail, which every restart runs on a tail log
// a crash may have torn, through a file holding arbitrary bytes. The
// invariant: LoadTail returns records or an error wrapping ErrCorrupt or
// ErrVersionSkew, never panics, and allocates within tailAllocBound of
// the file's size, so no column, row or predicate count the file claims
// makes it allocate for data the file does not hold. Run the smoke with:
//
//	go test -run '^$' -fuzz FuzzTailDecode -fuzztime 10s ./internal/snapshot
func FuzzTailDecode(f *testing.F) {
	for _, seed := range tailFuzzSeeds(f) {
		f.Add(seed.data)
	}
	// Inputs run one at a time in each worker process, so they share
	// one file.
	path := filepath.Join(f.TempDir(), "catalog.tail")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, _, err := LoadTail(path)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > tailAllocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersionSkew) {
				t.Fatalf("untyped decode error: %v", err)
			}
			if recs != nil {
				t.Fatal("decode returned both records and an error")
			}
			return
		}
		for i, rec := range recs {
			if rec.Delete {
				continue
			}
			if len(rec.Cols) == 0 {
				t.Fatalf("append record %d has no columns", i)
			}
			for _, c := range rec.Cols {
				if len(c) != len(rec.Cols[0]) {
					t.Fatalf("append record %d has ragged columns", i)
				}
			}
		}
	})
}

// tailAllocBound is the most LoadTail may allocate decoding a size-byte
// log. Per byte: the file, the decoded floats and their scratch (≈ 3×),
// or for the smallest records (a 12-byte frame around a 12-byte empty
// delete) their readers and TailRecord, ≈ 400 bytes each (≈ 17×). The
// constant covers opening the file.
func tailAllocBound(size int) uint64 {
	return uint64(32*size + 4<<10)
}
