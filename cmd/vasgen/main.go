// Command vasgen generates datasets and builds samples offline — the
// preprocessing step of §II-D.
//
// Generate a synthetic dataset:
//
//	vasgen -gen geolife -n 1000000 -out data.csv
//	vasgen -gen splom   -n 1000000 -out splom.bin
//
// Build a sample from a dataset file (CSV x,y[,value] or the binary
// format):
//
//	vasgen -in data.csv -method vas -k 10000 -density -out sample.csv
//
// With -snapshot DIR (vas method only) vasgen additionally assembles a
// serving catalog — the base table plus the sample it just built, both
// spatially indexed — and saves it as a snapshot for embedders to
// restore with vas.Catalog.LoadSnapshot (zero offline work at load):
//
//	vasgen -in data.csv -k 10000 -density -out sample.csv -snapshot /var/lib/vas
//
// Note the demo servers manage their own snapshot directories: vasserve
// and vasquery generate their dataset and check the snapshot's
// provenance against their own flags, so they treat a vasgen-produced
// snapshot (different table, different data) as stale and rebuild over
// it. Point them at separate directories.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dataset"
	"repro/internal/geom"

	vas "repro"
)

func main() {
	var (
		gen     = flag.String("gen", "", "generate a dataset: geolife | splom | clusters")
		n       = flag.Int("n", 100_000, "rows to generate")
		seed    = flag.Int64("seed", 42, "random seed")
		in      = flag.String("in", "", "input dataset file (.csv or binary)")
		out     = flag.String("out", "", "output file (required)")
		method  = flag.String("method", "vas", "sampling method: vas | uniform | stratified")
		k       = flag.Int("k", 10_000, "sample size")
		bins    = flag.Int("bins", 100, "stratification bins per side")
		density = flag.Bool("density", false, "attach §V density counts (vas only)")
		passes  = flag.Int("passes", 2, "Interchange passes over the data")
		variant = flag.String("variant", "es", "Interchange variant: es | no-es (slow baseline, same sample as es) | es+loc (es with kernel pairs beyond the pair support counted as zero)")
		snapDir = flag.String("snapshot", "", "also save a serving-catalog snapshot (base table + sample) to this directory (vas only)")
	)
	flag.Parse()
	if *out == "" {
		fail("missing -out")
	}
	if *snapDir != "" && *method != "vas" {
		fail("-snapshot requires -method vas")
	}
	if *snapDir != "" && *gen != "" {
		// The -gen branch only writes a dataset; silently skipping the
		// snapshot would strand a scripted producer flow.
		fail("-snapshot requires -in (a snapshot captures a built sample, not a generated dataset)")
	}

	if *gen != "" {
		d := generate(*gen, *n, *seed)
		if err := dataset.SaveFile(*out, d); err != nil {
			fail("save: %v", err)
		}
		fmt.Printf("wrote %d points to %s\n", d.Len(), *out)
		return
	}

	if *in == "" {
		fail("need -gen or -in")
	}
	d, err := dataset.LoadFile(*in, "input")
	if err != nil {
		fail("load: %v", err)
	}
	var pts []geom.Point
	var ids []int
	switch *method {
	case "vas":
		s, err := vas.Build(d.Points, vas.Options{K: *k, Passes: *passes, Variant: *variant})
		if err != nil {
			fail("build: %v", err)
		}
		pts, ids = s.Points, s.IDs
		if *density {
			ws, err := s.DensityEmbed(d.Points)
			if err != nil {
				fail("density: %v", err)
			}
			outDS := &dataset.Dataset{Name: "sample", Points: ws.Points}
			outDS.Values = make([]float64, len(ws.Counts))
			for i, c := range ws.Counts {
				outDS.Values[i] = float64(c)
			}
			if err := dataset.SaveFile(*out, outDS); err != nil {
				fail("save: %v", err)
			}
			fmt.Printf("wrote %d-point vas+density sample (objective %.4g) to %s\n", len(pts), s.Objective, *out)
			saveSnapshot(*snapDir, d, s, ws.Counts)
			return
		}
		fmt.Printf("vas objective: %.4g after %d pass(es)\n", s.Objective, s.Passes)
		saveSnapshot(*snapDir, d, s, nil)
	case "uniform":
		pts, ids, err = vas.Uniform(d.Points, *k, *seed)
		if err != nil {
			fail("uniform: %v", err)
		}
	case "stratified":
		pts, ids, err = vas.Stratified(d.Points, *k, *bins, *seed)
		if err != nil {
			fail("stratified: %v", err)
		}
	default:
		fail("unknown method %q", *method)
	}
	outDS := &dataset.Dataset{Name: "sample", Points: pts}
	if d.Values != nil {
		outDS.Values = make([]float64, len(ids))
		for i, id := range ids {
			outDS.Values[i] = d.Values[id]
		}
	}
	if err := dataset.SaveFile(*out, outDS); err != nil {
		fail("save: %v", err)
	}
	fmt.Printf("wrote %d-point %s sample to %s\n", len(pts), *method, *out)
}

// saveSnapshot assembles a serving catalog — base table "data" plus the
// sample main already built (registered as-is, no second Interchange
// run), both spatially indexed — and persists it for embedders to
// restore with vas.Catalog.LoadSnapshot.
func saveSnapshot(dir string, d *dataset.Dataset, s *vas.Sample, counts []int64) {
	if dir == "" {
		return
	}
	cat := vas.NewCatalog()
	if err := cat.LoadTable("data", d.Points); err != nil {
		fail("snapshot: %v", err)
	}
	if err := cat.RegisterSample("data", s, counts); err != nil {
		fail("snapshot: %v", err)
	}
	if err := cat.SaveSnapshot(dir); err != nil {
		fail("snapshot: %v", err)
	}
	fmt.Printf("wrote catalog snapshot (table %q, %d rows, %d-point sample) to %s\n",
		"data", d.Len(), len(s.Points), dir)
}

func generate(kind string, n int, seed int64) *dataset.Dataset {
	switch kind {
	case "geolife":
		return dataset.GeolifeLike(dataset.GeolifeOptions{N: n, Seed: seed})
	case "splom":
		return dataset.NewSPLOM(dataset.SPLOMOptions{N: n, Seed: seed}).XY(0, 1)
	case "clusters":
		sets := dataset.ClusterStudyDatasets(n, seed)
		return sets[0].Dataset
	}
	fail("unknown generator %q", kind)
	return nil
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "vasgen: "+format+"\n", args...)
	os.Exit(1)
}
