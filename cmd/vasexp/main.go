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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "vasexp: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vasexp", flag.ContinueOnError)
	var (
		exp   = fs.String("exp", "all", "experiment id or 'all' (ids: "+strings.Join(experiments.IDs(), ", ")+")")
		scale = fs.String("scale", "small", "experiment scale: small | medium | full")
		list  = fs.Bool("list", false, "list experiment ids and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return nil
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
		return fmt.Errorf("unknown scale %q (small|medium|full)", *scale)
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		rep, err := experiments.Run(id, sc)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if _, err := rep.WriteTo(stdout); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "(%s in %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
