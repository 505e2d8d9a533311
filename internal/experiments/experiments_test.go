package experiments

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/sampling"
	"repro/internal/vas"
)

// tinyScale keeps every experiment fast enough for unit tests. DataN must
// stay well above the largest sample size: the user-study dynamics (Table
// I) only appear when K ≪ N, as in the paper's 24.4M-row corpus.
func tinyScale() Scale {
	return Scale{
		DataN:       60_000,
		SampleSizes: []int{100, 400},
		Trials:      60,
		Probes:      150,
		Seed:        42,
	}
}

func TestIDsRegistered(t *testing.T) {
	want := []string{
		"ablation-eps", "ablation-kernel", "ablation-passes",
		"fig1", "fig2", "fig4", "fig7", "fig8", "fig9", "fig10",
		"table1a", "table1b", "table1c", "table2",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	for _, id := range want {
		found := false
		for _, g := range got {
			if g == id {
				found = true
			}
		}
		if !found {
			t.Errorf("missing experiment %q", id)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("table9", tinyScale()); err == nil {
		t.Error("unknown id: want error")
	}
}

func TestReportWriting(t *testing.T) {
	r := &Report{ID: "x", Caption: "c", Columns: []string{"a", "bb"}}
	r.AddRow(1, 2.5)
	r.Notes = append(r.Notes, "note text")
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== x: c ==", "a", "bb", "2.5", "note: note text"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	rep, err := Run("fig2", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("fig2 rows = %d", len(rep.Rows))
	}
	// No row may be interactive: the premise of the paper.
	for _, row := range rep.Rows {
		if row[len(row)-1] != "false" {
			t.Errorf("row %v claims interactive full-data plotting", row)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	rep, err := Run("fig4", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("fig4 rows = %d", len(rep.Rows))
	}
}

func TestTable1aShape(t *testing.T) {
	sc := tinyScale()
	rep, err := Run("table1a", sc)
	if err != nil {
		t.Fatal(err)
	}
	// Rows: one per size plus the average row.
	if len(rep.Rows) != len(sc.SampleSizes)+1 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	avg := rep.Rows[len(rep.Rows)-1]
	uniform := parseF(t, avg[1])
	vas := parseF(t, avg[3])
	// The headline: VAS average beats uniform average.
	if vas <= uniform {
		t.Errorf("table1a average: vas %.3f <= uniform %.3f", vas, uniform)
	}
}

func TestTable1bDensityColumnWins(t *testing.T) {
	rep, err := Run("table1b", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	avg := rep.Rows[len(rep.Rows)-1]
	plainVAS := parseF(t, avg[3])
	vasDensity := parseF(t, avg[4])
	if vasDensity <= plainVAS {
		t.Errorf("table1b: vas+density %.3f should beat plain vas %.3f", vasDensity, plainVAS)
	}
}

func TestTable1cShape(t *testing.T) {
	rep, err := Run("table1c", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	avg := rep.Rows[len(rep.Rows)-1]
	vasDensity := parseF(t, avg[4])
	if vasDensity < 0.3 {
		t.Errorf("table1c vas+density average %.3f suspiciously low", vasDensity)
	}
}

func TestFig7NegativeCorrelation(t *testing.T) {
	rep, err := Run("fig7", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Notes) == 0 {
		t.Fatal("fig7 must report Spearman rho")
	}
	// The note starts "Spearman rho = <value>".
	var rho float64
	if _, err := fmtSscanf(rep.Notes[0], &rho); err != nil {
		t.Fatalf("cannot parse rho from %q: %v", rep.Notes[0], err)
	}
	if rho >= 0 {
		t.Errorf("Spearman rho = %v, want negative (paper: -0.85)", rho)
	}
}

func fmtSscanf(note string, rho *float64) (int, error) {
	// Note format: "Spearman rho = -0.xxx (p = ...)..."
	fields := strings.Fields(note)
	for i, f := range fields {
		if f == "=" && i+1 < len(fields) {
			v, err := strconv.ParseFloat(fields[i+1], 64)
			if err != nil {
				return 0, err
			}
			*rho = v
			return 1, nil
		}
	}
	return 0, strconv.ErrSyntax
}

func TestFig8VASWins(t *testing.T) {
	sc := tinyScale()
	rep, err := Run("fig8", sc)
	if err != nil {
		t.Fatal(err)
	}
	// Collect per-method error at the largest sample size.
	losses := map[string]float64{}
	biggest := strconv.Itoa(sc.SampleSizes[len(sc.SampleSizes)-1])
	for _, row := range rep.Rows {
		if row[1] == biggest {
			losses[row[0]] = parseF(t, row[3])
		}
	}
	if len(losses) != 3 {
		t.Fatalf("expected 3 methods at size %s, got %v", biggest, losses)
	}
	if losses[string(sampling.MethodVAS)] > losses[string(sampling.MethodUniform)] {
		t.Errorf("fig8: vas loss %v exceeds uniform %v", losses["vas"], losses["uniform"])
	}
}

func TestFig9ObjectiveImproves(t *testing.T) {
	rep, err := Run("fig9", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) < 4 {
		t.Fatalf("fig9 rows = %d", len(rep.Rows))
	}
	first := parseF(t, rep.Rows[0][3])
	last := parseF(t, rep.Rows[len(rep.Rows)-1][3])
	if last > first {
		t.Errorf("fig9: normalized objective rose from %v to %v", first, last)
	}
}

// TestFig10VariantsAgree checks what Fig. 10's three variants promise,
// at a size a unit test can afford; `vasexp -exp fig10` keeps the
// wall-time rows. NoES is O(K²) per point, so it is compared with ES on a
// stream prefix rather than all 20 000 points.
func TestFig10VariantsAgree(t *testing.T) {
	const k = 400
	d := geolife(Scale{DataN: 20_000, Seed: 42})
	kern, err := dataKernel(d.Points)
	if err != nil {
		t.Fatal(err)
	}
	run := func(v vas.Variant, pts []geom.Point) *vas.Interchange {
		ic := vas.NewInterchange(vas.Options{K: k, Kernel: kern, Variant: v})
		for i, p := range pts {
			ic.Add(p, i)
		}
		return ic
	}

	// NoES and ES apply the same replacement rule, so they select the same
	// set; only the slot order differs.
	prefix := d.Points[:1200]
	noes, es := run(vas.NoES, prefix), run(vas.ES, prefix)
	if es.Replacements() == 0 {
		t.Fatal("ES made no swaps on the prefix; the comparison is vacuous")
	}
	if a, b := sortedIDs(noes), sortedIDs(es); !slices.Equal(a, b) {
		t.Errorf("NoES and ES selected different samples (%d vs %d swaps)", noes.Replacements(), es.Replacements())
	}

	// ES+Loc only truncates kernel tails beyond the pair support, so its
	// exact objective stays within 1e-4 relative of ES's.
	es, esloc := run(vas.ES, d.Points), run(vas.ESLoc, d.Points)
	objES, objLoc := es.RecomputeObjective(), esloc.RecomputeObjective()
	if rel := math.Abs(objLoc-objES) / objES; rel > 1e-4 {
		t.Errorf("ES+Loc objective %v vs ES %v: relative gap %.3g > 1e-4", objLoc, objES, rel)
	}
}

func sortedIDs(ic *vas.Interchange) []int {
	ids := ic.SampleIDs()
	slices.Sort(ids)
	return ids
}

func TestFig1ZoomCoverageGap(t *testing.T) {
	rep, err := Run("fig1", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	// On the deepest zoom row, VAS coverage must beat stratified.
	last := rep.Rows[len(rep.Rows)-1]
	strat := parseF(t, last[2])
	vasCov := parseF(t, last[3])
	if vasCov < strat {
		t.Errorf("fig1 deep zoom: vas coverage %.3f < stratified %.3f", vasCov, strat)
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}
