package experiments

import (
	"fmt"
	"time"

	"repro/internal/vas"
)

// This file regenerates Fig. 9 (Interchange objective vs processing time,
// showing fast early improvement) and Fig. 10 (offline runtime of the
// three optimization levels NoES / ES / ES+Loc at a small and a large
// sample size).

func init() {
	register("fig9", runFig9)
	register("fig10", runFig10)
}

func runFig9(sc Scale) (*Report, error) {
	d := geolife(sc)
	kern, err := dataKernel(d.Points)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:      "fig9",
		Caption: "Processing time vs objective (paper Fig. 9): Interchange improves quality quickly, then plateaus",
		Columns: []string{"sample size", "progress(points seen)", "elapsed", "objective (normalized to start)"},
	}
	// Two sample sizes as in the paper (100K and 1M there; scaled here).
	ks := []int{sc.SampleSizes[0], sc.SampleSizes[len(sc.SampleSizes)-1]}
	const checkpoints = 8
	for _, k := range ks {
		if k >= len(d.Points) {
			continue
		}
		ic := vas.NewInterchange(vas.Options{K: k, Kernel: kern, Variant: vas.ES})
		start := time.Now()
		var baseline float64
		step := len(d.Points) / checkpoints
		if step == 0 {
			step = 1
		}
		for i, p := range d.Points {
			ic.Add(p, i)
			if (i+1)%step == 0 || i == len(d.Points)-1 {
				obj := ic.RecomputeObjective()
				if baseline == 0 {
					baseline = obj
					if baseline == 0 {
						baseline = 1
					}
				}
				r.AddRow(k, i+1, time.Since(start), obj/baseline)
			}
		}
	}
	r.Notes = append(r.Notes,
		"paper shape: the objective falls steeply in the first checkpoints and then improves slowly toward convergence",
	)
	return r, nil
}

func runFig10(sc Scale) (*Report, error) {
	d := geolife(sc)
	kern, err := dataKernel(d.Points)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:      "fig10",
		Caption: "Offline runtime of optimization levels (paper Fig. 10): NoES vs ES vs ES+Loc at small and large K",
		Columns: []string{"sample size", "variant", "runtime", "objective"},
	}
	// The paper uses K=100 (small) and K=5000 (large); NoES is only run at
	// the small size there too, because it is quadratically slow.
	type cfg struct {
		k        int
		variants []vas.Variant
	}
	small := sc.SampleSizes[0]
	large := 5000
	if large >= len(d.Points) {
		large = len(d.Points) / 4
	}
	cfgs := []cfg{
		{k: small, variants: []vas.Variant{vas.NoES, vas.ES, vas.ESLoc}},
		{k: large, variants: []vas.Variant{vas.ES, vas.ESLoc}},
	}
	// NoES at large K would dominate the harness runtime; cap its input.
	for _, c := range cfgs {
		for _, v := range c.variants {
			pts := d.Points
			if v == vas.NoES && len(pts) > 60_000 {
				pts = pts[:60_000]
			}
			ic := vas.NewInterchange(vas.Options{K: c.k, Kernel: kern, Variant: v})
			start := time.Now()
			for i, p := range pts {
				ic.Add(p, i)
			}
			elapsed := time.Since(start)
			label := v.String()
			if len(pts) != len(d.Points) {
				label += fmt.Sprintf(" (first %d pts)", len(pts))
			}
			r.AddRow(c.k, label, elapsed, ic.RecomputeObjective())
		}
	}
	r.Notes = append(r.Notes,
		"paper shape: NoES is far slower everywhere; at K=100 plain ES beats ES+Loc (index upkeep not amortized); the paper reports ES+Loc overtaking ES at K=5000",
		"reproduction finding: ES+Loc here is ES with pairs beyond the 6ε pair support counted as zero; on this skewed data about half of all newcomer–slot pairs fall inside that support (48% at 50k points, K=1000), so the cutoff skips little and ES+Loc runs at ES's speed instead of overtaking it",
	)
	return r, nil
}
