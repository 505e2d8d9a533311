package store

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// treeLayoutGoldenHash pins the R-tree backend's packed layout on the
// data of TestTreeLayoutGolden: leaf membership and order, leaf and node
// MBRs, the node hierarchy and the node zone maps. It was recorded from
// the store's own STR builder before the packer moved to internal/strtree.
const treeLayoutGoldenHash uint64 = 0x3e965d14a8fa4f9e

// goldenTreeTable builds a 24 000-row rtree-backed table over three
// Gaussian clusters plus uniform background, with every 40th row an
// exact duplicate of an earlier row (ties for the (x, y, id) sort rule)
// and every 500th row NaN in x (the extras list).
func goldenTreeTable(t *testing.T) *Table {
	t.Helper()
	rng := rand.New(rand.NewSource(30))
	const n = 24_000
	xs := make([]float64, n)
	ys := make([]float64, n)
	ms := make([]float64, n)
	centers := [][2]float64{{200, 300}, {650, 700}, {800, 150}}
	for i := range xs {
		switch {
		case i > 0 && i%40 == 0:
			j := rng.Intn(i)
			xs[i], ys[i] = xs[j], ys[j]
		case rng.Intn(8) == 0:
			xs[i], ys[i] = rng.Float64()*1000, rng.Float64()*1000
		default:
			c := centers[rng.Intn(len(centers))]
			xs[i], ys[i] = c[0]+rng.NormFloat64()*20, c[1]+rng.NormFloat64()*20
		}
		if i%500 == 499 {
			xs[i] = math.NaN()
		}
		ms[i] = rng.Float64() * 100
	}
	useBackend(t, BackendRTree)
	tb, err := NewTable("golden", "x", "y", "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.BulkLoad(xs, ys, ms); err != nil {
		t.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestTreeLayoutGolden: the packed layout the R-tree backend publishes —
// and therefore every snapshot byte it writes — is exactly the recorded
// one, so a drifting packer cannot pass silently.
func TestTreeLayoutGolden(t *testing.T) {
	snap := goldenTreeTable(t).SnapshotGeneration()
	if len(snap.TreeIndexes) != 1 {
		t.Fatalf("%d tree indexes, want 1", len(snap.TreeIndexes))
	}
	is := snap.TreeIndexes[0]
	h := fnv.New64a()
	var buf [8]byte
	i32s := func(vs []int32) {
		for _, v := range vs {
			binary.LittleEndian.PutUint32(buf[:4], uint32(v))
			h.Write(buf[:4])
		}
	}
	f64s := func(vs []float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	i32s(is.RowID)
	i32s(is.LeafOff)
	f64s(is.LeafMBR)
	f64s(is.NodeMBR)
	i32s(is.NodeLo)
	i32s(is.NodeHi)
	i32s(is.NodeLeafLo)
	i32s(is.NodeLeafHi)
	for _, b := range is.NodeLeafKids {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	f64s(is.NZMin)
	f64s(is.NZMax)
	if got := h.Sum64(); got != treeLayoutGoldenHash {
		t.Errorf("layout hash %#x, want %#x (%d rows, %d leaves, %d nodes)",
			got, treeLayoutGoldenHash, len(is.RowID), len(is.LeafOff)-1, len(is.NodeLo))
	}
}
