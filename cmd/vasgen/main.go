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
// Note vasserve manages its own snapshot directory: it generates its
// dataset and checks the snapshot's provenance against its own flags,
// so it treats a vasgen-produced snapshot (different table, different
// data) as stale and rebuilds over it. Point them at separate
// directories.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/dataset"
	"repro/internal/geom"

	vas "repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "vasgen: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vasgen", flag.ContinueOnError)
	var (
		gen     = fs.String("gen", "", "generate a dataset: geolife | splom | clusters")
		n       = fs.Int("n", 100_000, "rows to generate")
		seed    = fs.Int64("seed", 42, "random seed")
		in      = fs.String("in", "", "input dataset file (.csv or binary)")
		out     = fs.String("out", "", "output file (required)")
		method  = fs.String("method", "vas", "sampling method: vas | uniform | stratified")
		k       = fs.Int("k", 10_000, "sample size")
		bins    = fs.Int("bins", 100, "stratification bins per side")
		density = fs.Bool("density", false, "attach §V density counts (vas only)")
		passes  = fs.Int("passes", 2, "Interchange passes over the data")
		variant = fs.String("variant", "es", "Interchange variant: es | no-es (slow baseline, same sample as es) | es+loc (es with kernel pairs beyond the pair support counted as zero)")
		snapDir = fs.String("snapshot", "", "also save a serving-catalog snapshot (base table + sample) to this directory (vas only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return errors.New("missing -out")
	}
	if *snapDir != "" && *method != "vas" {
		return errors.New("-snapshot requires -method vas")
	}
	if *snapDir != "" && *gen != "" {
		// The -gen branch only writes a dataset; silently skipping the
		// snapshot would strand a scripted producer flow.
		return errors.New("-snapshot requires -in (a snapshot captures a built sample, not a generated dataset)")
	}

	if *gen != "" {
		d, err := generate(*gen, *n, *seed)
		if err != nil {
			return err
		}
		if err := dataset.SaveFile(*out, d); err != nil {
			return fmt.Errorf("save: %w", err)
		}
		fmt.Fprintf(stdout, "wrote %d points to %s\n", d.Len(), *out)
		return nil
	}

	if *in == "" {
		return errors.New("need -gen or -in")
	}
	d, err := dataset.LoadFile(*in, "input")
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	var pts []geom.Point
	var ids []int
	switch *method {
	case "vas":
		s, err := vas.Build(d.Points, vas.Options{K: *k, Passes: *passes, Variant: *variant})
		if err != nil {
			return fmt.Errorf("build: %w", err)
		}
		pts, ids = s.Points, s.IDs
		if *density {
			ws, err := s.DensityEmbed(d.Points)
			if err != nil {
				return fmt.Errorf("density: %w", err)
			}
			outDS := &dataset.Dataset{Name: "sample", Points: ws.Points}
			outDS.Values = make([]float64, len(ws.Counts))
			for i, c := range ws.Counts {
				outDS.Values[i] = float64(c)
			}
			if err := dataset.SaveFile(*out, outDS); err != nil {
				return fmt.Errorf("save: %w", err)
			}
			fmt.Fprintf(stdout, "wrote %d-point vas+density sample (objective %.4g) to %s\n", len(pts), s.Objective, *out)
			return saveSnapshot(stdout, *snapDir, d, s, ws.Counts)
		}
		fmt.Fprintf(stdout, "vas objective: %.4g after %d pass(es)\n", s.Objective, s.Passes)
		if err := saveSnapshot(stdout, *snapDir, d, s, nil); err != nil {
			return err
		}
	case "uniform":
		pts, ids, err = vas.Uniform(d.Points, *k, *seed)
		if err != nil {
			return fmt.Errorf("uniform: %w", err)
		}
	case "stratified":
		pts, ids, err = vas.Stratified(d.Points, *k, *bins, *seed)
		if err != nil {
			return fmt.Errorf("stratified: %w", err)
		}
	default:
		return fmt.Errorf("unknown method %q", *method)
	}
	outDS := &dataset.Dataset{Name: "sample", Points: pts}
	if d.Values != nil {
		outDS.Values = make([]float64, len(ids))
		for i, id := range ids {
			outDS.Values[i] = d.Values[id]
		}
	}
	if err := dataset.SaveFile(*out, outDS); err != nil {
		return fmt.Errorf("save: %w", err)
	}
	fmt.Fprintf(stdout, "wrote %d-point %s sample to %s\n", len(pts), *method, *out)
	return nil
}

// saveSnapshot assembles a serving catalog — base table "data" plus the
// sample run already built (registered as-is, no second Interchange
// run), both spatially indexed — and persists it for embedders to
// restore with vas.Catalog.LoadSnapshot.
func saveSnapshot(stdout io.Writer, dir string, d *dataset.Dataset, s *vas.Sample, counts []int64) error {
	if dir == "" {
		return nil
	}
	cat := vas.NewCatalog()
	if err := cat.LoadTable("data", d.Points); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := cat.RegisterSample("data", s, counts); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := cat.SaveSnapshot(dir); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	fmt.Fprintf(stdout, "wrote catalog snapshot (table %q, %d rows, %d-point sample) to %s\n",
		"data", d.Len(), len(s.Points), dir)
	return nil
}

func generate(kind string, n int, seed int64) (*dataset.Dataset, error) {
	switch kind {
	case "geolife":
		return dataset.GeolifeLike(dataset.GeolifeOptions{N: n, Seed: seed}), nil
	case "splom":
		return dataset.NewSPLOM(dataset.SPLOMOptions{N: n, Seed: seed}).XY(0, 1), nil
	case "clusters":
		sets := dataset.ClusterStudyDatasets(n, seed)
		return sets[0].Dataset, nil
	}
	return nil, fmt.Errorf("unknown generator %q", kind)
}
