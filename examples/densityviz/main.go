// Densityviz demonstrates the §V density embedding: a plain VAS sample
// flattens density (every region looks equally populated), so the second
// pass attaches per-point counts that restore density for visual
// estimation — rendered here as dot areas.
//
//	go run ./examples/densityviz
//	# writes vas_plain.png and vas_density.png, and prints how well each
//	# encoding preserves the dataset's density ranking
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/dataset"
	"repro/internal/geom"

	vas "repro"
)

func main() {
	if err := run(".", os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the two PNGs into dir and prints the comparison.
func run(dir string, stdout io.Writer) error {
	// Two Gaussian clusters with very different populations: 85% vs 15%.
	d := dataset.Clusters("unbalanced", 60_000, 9, []dataset.ClusterSpec{
		{Center: geom.Pt(-3, 0), SigmaX: 1, SigmaY: 1, Weight: 0.85},
		{Center: geom.Pt(3, 0), SigmaX: 1, SigmaY: 1, Weight: 0.15},
	})

	sample, err := vas.Build(d.Points, vas.Options{K: 400})
	if err != nil {
		return err
	}
	ws, err := sample.DensityEmbed(d.Points)
	if err != nil {
		return err
	}

	if err := writePNG(stdout, filepath.Join(dir, "vas_plain.png"), func(f *os.File) error {
		return vas.RenderPNG(f, sample.Points, vas.Rect{}, 640, 480)
	}); err != nil {
		return err
	}
	if err := writePNG(stdout, filepath.Join(dir, "vas_density.png"), func(f *os.File) error {
		return vas.RenderWeightedPNG(f, ws, vas.Rect{}, 640, 480)
	}); err != nil {
		return err
	}

	// Quantify: how much sample mass lands on each cluster under each
	// encoding? The dataset ratio is 85:15; plain VAS shows ~50:50.
	left := func(p vas.Point) bool { return p.X < 0 }
	var plainL, plainN float64
	var weightedL, weightedN float64
	for i, p := range ws.Points {
		plainN++
		weightedN += float64(ws.Counts[i])
		if left(p) {
			plainL++
			weightedL += float64(ws.Counts[i])
		}
	}
	fmt.Fprintf(stdout, "dataset mass on left cluster:        85.0%% (by construction)\n")
	fmt.Fprintf(stdout, "plain VAS points on left cluster:    %.1f%% (density flattened)\n", 100*plainL/plainN)
	fmt.Fprintf(stdout, "density-embedded mass on left:       %.1f%% (restored by §V counts)\n", 100*weightedL/weightedN)

	// The counts also answer "which regions are densest" correctly:
	// rank sample points by count and check the top decile sits in the
	// heavy cluster.
	type pc struct {
		p vas.Point
		c int64
	}
	ranked := make([]pc, len(ws.Points))
	for i := range ws.Points {
		ranked[i] = pc{ws.Points[i], ws.Counts[i]}
	}
	sort.Slice(ranked, func(a, b int) bool { return ranked[a].c > ranked[b].c })
	top := ranked[:len(ranked)/10]
	inHeavy := 0
	for _, r := range top {
		if left(r.p) {
			inHeavy++
		}
	}
	fmt.Fprintf(stdout, "top-decile count points in heavy cluster: %d/%d\n", inHeavy, len(top))

	// Sanity: counts must sum to the dataset size (every point routed to
	// exactly one nearest sample point).
	fmt.Fprintf(stdout, "counts sum=%d, dataset size=%d\n", ws.TotalCount(), d.Len())
	return nil
}

func writePNG(stdout io.Writer, name string, render func(*os.File) error) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := render(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "wrote", name)
	return nil
}
