// Command vasviz renders a dataset or sample file to a PNG scatter or map
// plot, with optional zoom — the tool used to reproduce the Fig. 1 panels.
//
//	vasviz -in sample.csv -out overview.png
//	vasviz -in sample.csv -out zoom.png -zoom 8 -cx 116.4 -cy 39.9
//	vasviz -in geolife.csv -out map.png -map        # color = value column
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/dataset"

	vas "repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "vasviz: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vasviz", flag.ContinueOnError)
	var (
		in     = fs.String("in", "", "input dataset/sample file (required)")
		out    = fs.String("out", "", "output PNG (required)")
		width  = fs.Int("w", 800, "image width")
		height = fs.Int("h", 600, "image height")
		zoom   = fs.Float64("zoom", 1, "zoom factor (1 = full extent)")
		cx     = fs.Float64("cx", 0, "zoom centre x (default: centre of the data extent)")
		cy     = fs.Float64("cy", 0, "zoom centre y (default: centre of the data extent)")
		mapPl  = fs.Bool("map", false, "map plot: color by the value column")
		weight = fs.Bool("weighted", false, "treat the value column as §V density counts (dot-size encoding)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return errors.New("-in and -out are required")
	}
	d, err := dataset.LoadFile(*in, "input")
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	bounds := d.Bounds()
	viewport := bounds
	if *zoom > 1 {
		// An unset coordinate of the centre is the extent's; 0 is a
		// coordinate like any other.
		c := bounds.Center()
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "cx":
				c.X = *cx
			case "cy":
				c.Y = *cy
			}
		})
		viewport, err = vas.Zoom(bounds, c, *zoom)
		if err != nil {
			return fmt.Errorf("zoom: %w", err)
		}
	}
	if *mapPl && d.Values == nil {
		return errors.New("-map needs a value column in the input")
	}
	if *weight && d.Values == nil {
		return errors.New("-weighted needs a count column in the input")
	}
	f, err := os.Create(*out)
	if err != nil {
		return fmt.Errorf("create: %w", err)
	}
	defer f.Close()
	switch {
	case *mapPl:
		err = vas.RenderMapPNG(f, d.Points, d.Values, viewport, *width, *height)
	case *weight:
		counts := make([]int64, len(d.Values))
		for i, v := range d.Values {
			counts[i] = int64(v)
		}
		err = vas.RenderWeightedPNG(f, &vas.WeightedSample{Points: d.Points, Counts: counts}, viewport, *width, *height)
	default:
		err = vas.RenderPNG(f, d.Points, viewport, *width, *height)
	}
	if err != nil {
		return fmt.Errorf("render: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	fmt.Fprintf(stdout, "wrote %s (%d points, viewport %v)\n", *out, d.Len(), viewport)
	return nil
}
