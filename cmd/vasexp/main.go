// Command vasexp regenerates the paper's tables and figures.
//
// Usage:
//
//	vasexp -exp table1a            # one experiment
//	vasexp -exp all -scale medium  # the whole evaluation section
//
// Experiment ids mirror the paper artifacts: fig1, fig2, fig4, fig7,
// fig8, fig9, fig10, table1a, table1b, table1c, table2, plus the
// ablation-eps, ablation-kernel and ablation-passes ablations.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment id or 'all' (ids: "+strings.Join(experiments.IDs(), ", ")+")")
		scale = flag.String("scale", "small", "experiment scale: small | medium | full")
		list  = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	var sc experiments.Scale
	switch *scale {
	case "small":
		sc = experiments.ScaleSmall()
	case "medium":
		sc = experiments.ScaleMedium()
	case "full":
		sc = experiments.ScaleFull()
	default:
		fmt.Fprintf(os.Stderr, "vasexp: unknown scale %q (small|medium|full)\n", *scale)
		os.Exit(2)
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		rep, err := experiments.Run(id, sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vasexp: %s: %v\n", id, err)
			os.Exit(1)
		}
		if _, err := rep.WriteTo(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "vasexp: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("(%s in %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
