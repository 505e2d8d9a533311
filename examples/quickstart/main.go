// Quickstart: build a VAS sample of a skewed dataset and compare its
// visualization loss against uniform and stratified samples of the same
// size — the headline claim of the paper in ~40 lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/dataset"

	vas "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(stdout io.Writer) error {
	// A skewed GPS-like dataset (substitute for the paper's Geolife).
	data := dataset.GeolifeLike(dataset.GeolifeOptions{N: 50_000, Seed: 1}).Points
	const k = 500

	// VAS: two streaming passes of the Interchange algorithm.
	sample, err := vas.Build(data, vas.Options{K: k})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "built VAS sample: %d of %d points, objective %.4g, %d pass(es)\n",
		len(sample.Points), len(data), sample.Objective, sample.Passes)

	// Baselines of the same size.
	uni, _, err := vas.Uniform(data, k, 1)
	if err != nil {
		return err
	}
	strat, _, err := vas.Stratified(data, k, 10, 1)
	if err != nil {
		return err
	}

	// Score all three with the paper's Monte Carlo loss (Eq. 1);
	// log-loss-ratio 0 = indistinguishable from plotting everything.
	for _, c := range []struct {
		name string
		pts  []vas.Point
	}{
		{"vas", sample.Points},
		{"uniform", uni},
		{"stratified", strat},
	} {
		rep, err := vas.EvaluateLoss(data, c.pts, 0, 1000, 7)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-11s log-loss-ratio=%6.3f  probe coverage=%.1f%%\n",
			c.name, rep.LogLossRatio, 100*rep.Covered)
	}
	fmt.Fprintln(stdout, "\nlower log-loss-ratio = higher visual fidelity at the same point budget")
	return nil
}
