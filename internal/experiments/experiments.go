// Package experiments regenerates every table and figure of the paper's
// evaluation section (§VI). Each experiment is a named function producing
// a Report — rows of labeled values mirroring the paper's artifact — so
// cmd/vasexp, the test suite, and the benchmark harness all share one
// implementation per artifact. An experiment id names the artifact it
// regenerates (fig1 … table2) or the ablation it runs (ablation-*).
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/proximity"
	"repro/internal/sampling"
	"repro/internal/vas"
)

// Scale sets the experiment sizes. The paper's headline scales (24.4M
// Geolife rows, 100K samples, 40 workers) are reachable with ScaleFull;
// ScaleSmall keeps the whole suite under a minute for tests and benches.
type Scale struct {
	// DataN is the synthetic dataset row count.
	DataN int
	// SampleSizes is the sweep of K values (the paper uses 100..100K).
	SampleSizes []int
	// Trials is the per-task user-study question count.
	Trials int
	// Probes is the Monte Carlo loss budget (paper: 1000).
	Probes int
	// Seed drives every generator for reproducibility.
	Seed int64
}

// ScaleSmall is sized for quick runs (seconds per experiment). DataN stays
// well above the largest K: the user-study dynamics only appear when
// K ≪ N, as with the paper's 24.4M-row corpus.
func ScaleSmall() Scale {
	return Scale{
		DataN:       60_000,
		SampleSizes: []int{100, 400, 1500},
		Trials:      120,
		Probes:      300,
		Seed:        42,
	}
}

// ScaleMedium is the default for cmd/vasexp: minutes for the full suite.
func ScaleMedium() Scale {
	return Scale{
		DataN:       200_000,
		SampleSizes: []int{100, 1000, 10_000},
		Trials:      240,
		Probes:      1000,
		Seed:        42,
	}
}

// ScaleFull approaches the paper's scales; hours for the full suite.
func ScaleFull() Scale {
	return Scale{
		DataN:       2_000_000,
		SampleSizes: []int{100, 1000, 10_000, 100_000},
		Trials:      960,
		Probes:      1000,
		Seed:        42,
	}
}

// Report is the regenerated artifact: a caption, column headers, and rows.
type Report struct {
	ID      string
	Caption string
	Columns []string
	Rows    [][]string
	// Notes records shape-level observations (who wins, crossovers).
	Notes []string
}

// AddRow appends a formatted row; values are Sprint'ed with %v except
// float64 (4 significant digits) and time.Duration (rounded).
func (r *Report) AddRow(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		case time.Duration:
			row[i] = x.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprint(x)
		}
	}
	r.Rows = append(r.Rows, row)
}

// WriteTo renders the report as an aligned text table.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Caption)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Func runs one experiment at a scale.
type Func func(Scale) (*Report, error)

// registry maps experiment ids to implementations; populated by init
// functions in the per-experiment files.
var registry = map[string]Func{}

func register(id string, f Func) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = f
}

// IDs returns the registered experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given id.
func Run(id string, sc Scale) (*Report, error) {
	f, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return f(sc)
}

// ---- shared builders ----

// geolife returns the Geolife-like dataset for a scale, memoized per
// (N, seed) because several experiments share it.
var geolifeCache = map[string]*dataset.Dataset{}

func geolife(sc Scale) *dataset.Dataset {
	key := fmt.Sprintf("%d/%d", sc.DataN, sc.Seed)
	if d, ok := geolifeCache[key]; ok {
		return d
	}
	d := dataset.GeolifeLike(dataset.GeolifeOptions{N: sc.DataN, Seed: sc.Seed})
	geolifeCache[key] = d
	return d
}

// dataKernel returns the paper's kernel for a dataset (Gaussian, ε from
// the extent heuristic).
func dataKernel(pts []geom.Point) (proximity.Func, error) {
	return proximity.FromData(proximity.Gaussian, pts)
}

// buildSample constructs a sample of size k with the given method.
// For VAS it runs the ES variant for two passes (the paper's offline
// build runs Interchange to near-convergence; two passes are enough for
// the qualitative results at these scales). Returned ids index into pts.
func buildSample(method sampling.Method, pts []geom.Point, k int, kern proximity.Func, seed int64) ([]geom.Point, []int, error) {
	if k >= len(pts) {
		ids := make([]int, len(pts))
		for i := range ids {
			ids[i] = i
		}
		return append([]geom.Point(nil), pts...), ids, nil
	}
	switch method {
	case sampling.MethodUniform:
		r := sampling.NewReservoir(k, seed)
		sampling.Run(r, pts)
		return r.Sample(), r.SampleIDs(), nil
	case sampling.MethodStratified:
		// The user study uses 100 exclusive bins (10×10); keep that.
		s := sampling.NewStratifiedSquare(k, geom.Bounds(pts), 10, seed)
		sampling.Run(s, pts)
		return s.Sample(), s.SampleIDs(), nil
	case sampling.MethodVAS, sampling.MethodVASDensity:
		// Plain ES for small samples; the truncated ES+Loc for large ones,
		// following the paper's Fig. 10 guidance ("when the user is
		// interested in large samples ... ES+Loc will be the most
		// preferable choice").
		variant := vas.ES
		if k >= 2000 {
			variant = vas.ESLoc
		}
		ic := vas.NewInterchange(vas.Options{K: k, Kernel: kern, Variant: variant})
		vas.Converge(ic, pts, 2)
		return ic.Sample(), ic.SampleIDs(), nil
	}
	return nil, nil, fmt.Errorf("experiments: unknown method %q", method)
}

// gatherValues projects a value column onto sample ids.
func gatherValues(values []float64, ids []int) []float64 {
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = values[id]
	}
	return out
}
