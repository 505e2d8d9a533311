package vas_test

// Cold-start microbenchmarks: the cost of bringing a 1M-row serving
// catalog up from nothing — the offline path vasserve pays on every
// start without persistence — against the cost of restoring the
// identical catalog from a snapshot file; the snapshot path should be
// at least 10x faster. `make bench-smoke` runs them once each; the
// end-to-end restart cost is bench/'s restart_ms on cold_build.

import (
	"os"
	"sync"
	"testing"

	"repro/internal/dataset"

	vas "repro"
)

const (
	coldStartRows   = 1_000_000
	coldStartSample = 256
)

var coldStart struct {
	once sync.Once
	data *dataset.Dataset
	dir  string // holds a snapshot of the built catalog
	err  error
}

// TestMain exists to remove the ~40MB cold-start snapshot directory the
// benchmark setup leaves in the system temp dir (it cannot use
// b.TempDir, see coldStartSetup).
func TestMain(m *testing.M) {
	code := m.Run()
	if coldStart.dir != "" {
		os.RemoveAll(coldStart.dir)
	}
	os.Exit(code)
}

// coldStartSetup generates the 1M-row dataset once and saves a snapshot
// of the fully built catalog for the load-path benchmark.
func coldStartSetup(b *testing.B) (*dataset.Dataset, string) {
	b.Helper()
	coldStart.once.Do(func() {
		coldStart.data = dataset.GeolifeLike(dataset.GeolifeOptions{N: coldStartRows, Seed: 42})
		cat := vas.NewCatalog()
		if coldStart.err = cat.LoadTable("gps", coldStart.data.Points); coldStart.err != nil {
			return
		}
		coldStart.err = cat.BuildSamples("gps", coldStart.data.Points,
			[]int{coldStartSample}, true, vas.Options{Passes: 1})
		if coldStart.err != nil {
			return
		}
		// Not b.TempDir(): that is torn down when the benchmark that
		// happened to run the setup finishes, and the directory must
		// outlive it for the other benchmark.
		coldStart.dir, coldStart.err = os.MkdirTemp("", "vas-coldstart-")
		if coldStart.err != nil {
			return
		}
		coldStart.err = cat.SaveSnapshot(coldStart.dir)
	})
	if coldStart.err != nil {
		b.Fatal(coldStart.err)
	}
	return coldStart.data, coldStart.dir
}

// BenchmarkColdStartRebuild is what a vasserve start without -snapshot
// costs on 1M rows: bulk load + spatial index build on the base table,
// a full Interchange sample build with density embedding, and the
// sample's own index.
func BenchmarkColdStartRebuild(b *testing.B) {
	d, _ := coldStartSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cat := vas.NewCatalog()
		if err := cat.LoadTable("gps", d.Points); err != nil {
			b.Fatal(err)
		}
		if err := cat.BuildSamples("gps", d.Points, []int{coldStartSample}, true, vas.Options{Passes: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdStartSnapshot is the same catalog restored from the
// snapshot file: decode + validate + atomic publish, zero sample or
// index building.
func BenchmarkColdStartSnapshot(b *testing.B) {
	d, dir := coldStartSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cat := vas.NewCatalog()
		if err := cat.LoadSnapshot(dir); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		// Guard (untimed): the restored catalog must be the fresh one.
		if !cat.SnapshotFresh("gps", d.Points, []int{coldStartSample}, true, vas.Options{Passes: 1}) {
			b.Fatal("restored snapshot is not fresh")
		}
		b.StartTimer()
	}
}
