package snapshot

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
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

// TestWriteFuzzCorpus regenerates the checked-in seed corpus. Guarded
// by an env var so normal test runs (and CI) never rewrite testdata.
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
}
