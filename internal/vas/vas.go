// Package vas implements the paper's primary contribution: the
// Visualization-Aware Sampling problem (Definition 1) and the Interchange
// approximation algorithm (§IV-B) with its three optimization levels —
// the naive replacement test (NoES), the Expand/Shrink procedure (ES,
// Algorithm 1), and Expand/Shrink with the locality speed-up (ES+Loc).
//
// ES and ES+Loc decide each offer from the newcomer's row of κ̃ and write
// only when the swap is taken, so a rejected offer costs K kernel values.
// The slots are kept as struct-of-arrays, and every row is one
// proximity.Func.PairRowXY call: for the Gaussian on a CPU with AVX2 and
// FMA, distance, cutoff, exponent and a packed exp in one pass, four
// slots at a time. It returns PairDist2's bits, so the sample is the
// same on every CPU.
//
// ES+Loc is ES with pair-support truncation: a pair farther apart than
// proximity.Func.PairSupport contributes zero to the responsibilities. The
// paper skips those pairs through a spatial index; here the row fill
// tests the squared distance it already computes, which selects the same
// sample. On the skewed GPS data of the experiments about half of all
// newcomer–slot pairs fall inside the 6ε support, so the cutoff skips
// little and ES+Loc does not beat ES.
//
// VAS selects a K-subset S of the dataset minimizing the pairwise objective
//
//	Σ_{si,sj ∈ S, i<j} κ̃(si, sj)
//
// which the paper derives from the visualization loss ∫ 1/Σκ(x,si) dx by a
// second-order Taylor expansion. Interchange is a streaming hill-climber: it
// seeds S with the first K points, then for every subsequent data point
// tests whether swapping it into S decreases the objective, which by
// Theorem 2 is exactly what one Expand followed by one Shrink does.
package vas

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/proximity"
)

// Variant selects the Interchange implementation strategy. NoES and ES
// produce the same sample on the same input stream; ES+Loc differs only by
// the kernel-tail truncation. Fig. 10 measures their cost per scanned
// point.
type Variant int

const (
	// NoES tests each candidate replacement independently: for every slot
	// it recomputes the responsibility of the incoming point against the
	// rest of the sample, O(K²) per scanned point.
	NoES Variant = iota
	// ES uses the Expand/Shrink procedure of Algorithm 1: responsibilities
	// are maintained incrementally, O(K) per scanned point.
	ES
	// ESLoc is ES with every pair beyond the kernel's pair support
	// counted as zero (§IV-B's locality speed-up), still O(K) per point.
	ESLoc
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case NoES:
		return "no-es"
	case ES:
		return "es"
	case ESLoc:
		return "es+loc"
	default:
		return fmt.Sprintf("vas.Variant(%d)", int(v))
	}
}

// ParseVariant converts a variant name to its Variant.
func ParseVariant(s string) (Variant, error) {
	switch s {
	case "no-es", "noes":
		return NoES, nil
	case "es":
		return ES, nil
	case "es+loc", "esloc":
		return ESLoc, nil
	}
	return 0, fmt.Errorf("vas: unknown variant %q", s)
}

// Options configures an Interchange sampler.
type Options struct {
	// K is the sample size (required, positive).
	K int
	// Kernel is the proximity function; its Pair form is the κ̃ of
	// Definition 1 (required — use proximity.New or proximity.FromData).
	Kernel proximity.Func
	// Variant selects NoES, ES, or ESLoc. Default ES.
	Variant Variant
}

// Interchange is the streaming VAS sampler. It implements
// sampling.Sampler. Not safe for concurrent use.
type Interchange struct {
	opt Options

	// The K+1 sample slots, struct-of-arrays; at most K are active
	// outside Add. Slots are stable, so the slot order of SampleIDs is
	// deterministic for a given input stream. An inactive slot has
	// ids[s] = -1, xs[s] = +Inf and rsp[s] = 0: it is +Inf away from
	// every finite point, so its κ̃ is 0 in every row.
	xs, ys  []float64
	rsp     []float64 // Σ_j κ̃(slot, slot j) over the other active slots
	ids     []int
	free    []int // inactive slot indices
	nActive int

	// objective is Σ_{i<j} κ̃ over active slots, maintained incrementally.
	objective float64

	// cutoff2 is the squared pair distance beyond which fillRow counts
	// κ̃ as zero: PairSupport² for ESLoc, +Inf otherwise.
	cutoff2 float64
	row     []float64 // the rows' scratch, one κ̃ per slot

	// inSample is a bitset over the dataset ids currently selected, so
	// re-streamed passes skip points already in the sample (a
	// self-replacement is never a strict improvement, and floating-point
	// drift could otherwise turn it into a perpetual no-op swap).
	inSample []uint64

	replacements int // successful swaps since construction
	passSwaps    int // successful swaps since BeginPass
}

// NewInterchange returns an Interchange sampler. It panics on K <= 0 or an
// unusable kernel, because a misconfigured sampler would corrupt every
// downstream experiment silently.
func NewInterchange(opt Options) *Interchange {
	if opt.K <= 0 {
		panic(fmt.Sprintf("vas: K must be positive, got %d", opt.K))
	}
	if opt.Kernel.Bandwidth() <= 0 {
		panic("vas: Options.Kernel is unset (use proximity.New or proximity.FromData)")
	}
	n := opt.K + 1
	ic := &Interchange{
		opt:     opt,
		xs:      make([]float64, n),
		ys:      make([]float64, n),
		rsp:     make([]float64, n),
		ids:     make([]int, n),
		free:    make([]int, 0, n),
		row:     make([]float64, n),
		cutoff2: math.Inf(1),
	}
	for s := n - 1; s >= 0; s-- {
		ic.xs[s], ic.ids[s] = math.Inf(1), -1
		ic.free = append(ic.free, s)
	}
	if opt.Variant == ESLoc {
		r := opt.Kernel.PairSupport()
		ic.cutoff2 = r * r
	}
	return ic
}

// Replacements returns the number of successful swaps since construction.
func (ic *Interchange) Replacements() int { return ic.replacements }

// BeginPass resets the per-pass swap counter. Drivers that re-stream the
// dataset until convergence call BeginPass before each pass and stop when
// PassSwaps returns 0 (no valid replacement exists — the Interchange
// fixed point of Theorem 3).
func (ic *Interchange) BeginPass() { ic.passSwaps = 0 }

// PassSwaps returns the number of successful swaps since the last BeginPass.
func (ic *Interchange) PassSwaps() int { return ic.passSwaps }

// Objective returns the current optimization objective Σ_{i<j} κ̃(si,sj).
// For the ESLoc variant pairs beyond the kernel support are treated as
// zero, matching the approximation the paper's speed-up makes, until
// RecomputeObjective restores the exact value.
func (ic *Interchange) Objective() float64 { return ic.objective }

// Add implements sampling.Sampler. It offers one point; id >= 0 is its
// index. A point with a NaN or infinite coordinate is ignored: it has no
// place in a plot, and its κ̃ against the sample is undefined.
func (ic *Interchange) Add(p geom.Point, id int) {
	if id < 0 {
		panic(fmt.Sprintf("vas: Add with negative id %d", id))
	}
	if !finite(p.X) || !finite(p.Y) {
		return
	}
	if w := id >> 6; w >= len(ic.inSample) {
		ic.inSample = append(ic.inSample, make([]uint64, w+1-len(ic.inSample))...)
	}
	if ic.inSample[id>>6]&(1<<(id&63)) != 0 {
		return
	}
	if ic.nActive < ic.opt.K {
		ic.activate(ic.takeSlot(), p, id, ic.fillRow(p))
		return
	}
	switch ic.opt.Variant {
	case NoES:
		ic.addNoES(p, id)
	case ES, ESLoc:
		ic.addES(p, id)
	default:
		panic(fmt.Sprintf("vas: unknown variant %d", int(ic.opt.Variant)))
	}
}

// takeSlot pops a free slot index.
func (ic *Interchange) takeSlot() int {
	n := len(ic.free) - 1
	slot := ic.free[n]
	ic.free = ic.free[:n]
	return slot
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// fillRow returns κ̃(p, slot s) for each slot s: 0 for inactive slots
// and for pairs beyond cutoff2 (d2 > cutoff2, so a pair exactly at the
// support radius still counts).
func (ic *Interchange) fillRow(p geom.Point) []float64 {
	ic.opt.Kernel.PairRowXY(p.X, p.Y, ic.xs, ic.ys, ic.cutoff2, ic.row)
	return ic.row
}

// activate installs (p, id) into the inactive slot, where row is
// fillRow(p): it adds the row into every responsibility and the
// objective. Cost O(K).
func (ic *Interchange) activate(slot int, p geom.Point, id int, row []float64) {
	var rsp float64
	for s, l := range row {
		ic.rsp[s] += l
		rsp += l
	}
	ic.xs[slot], ic.ys[slot], ic.ids[slot], ic.rsp[slot] = p.X, p.Y, id, rsp
	ic.inSample[id>>6] |= 1 << (id & 63)
	ic.objective += rsp
	ic.nActive++
}

// deactivate removes slot from the sample, unwinding what activate did.
// The slot goes inactive before its row is filled, so the row holds 0
// for the slot itself.
func (ic *Interchange) deactivate(slot int) {
	p, id := geom.Pt(ic.xs[slot], ic.ys[slot]), ic.ids[slot]
	ic.xs[slot], ic.ids[slot] = math.Inf(1), -1
	for s, l := range ic.fillRow(p) {
		ic.rsp[s] -= l
	}
	ic.objective -= ic.rsp[slot]
	ic.rsp[slot] = 0
	ic.inSample[id>>6] &^= 1 << (id & 63)
	ic.nActive--
	ic.free = append(ic.free, slot)
}

// addES is Algorithm 1: Expand by inserting t, then Shrink by evicting the
// max-responsibility element. By Theorem 2 this performs a valid
// replacement whenever one exists for t, and otherwise leaves S unchanged.
// It decides from t's row first: in S+{t}, t's responsibility is the
// row's sum and slot s's is rsp+row[s]; only a taken swap writes.
func (ic *Interchange) addES(p geom.Point, id int) {
	slot := ic.takeSlot()
	row := ic.fillRow(p)
	// Evict the first slot with the largest; ties go to t (Theorem 2:
	// replace only on a strict improvement), so no swap cycles forever.
	rspT, worst, worstRsp := 0.0, -1, math.Inf(-1)
	for s, l := range row {
		rspT += l
		if r := ic.rsp[s] + l; r > worstRsp {
			worst, worstRsp = s, r
		}
	}
	if worstRsp <= rspT {
		ic.free = append(ic.free, slot)
		return
	}
	ic.activate(slot, p, id, row) // Expand
	ic.deactivate(worst)          // Shrink
	ic.replacements++
	ic.passSwaps++
}

// addNoES is the unoptimized baseline of Fig. 10: for every candidate slot
// it independently recomputes the incoming point's responsibility against
// S − {slot}, an O(K) computation per slot and O(K²) per scanned point.
// The accepted swap (if any) is against the slot with maximum expanded
// responsibility, so the outcome matches ES exactly.
func (ic *Interchange) addNoES(p geom.Point, id int) {
	// Responsibility of p in the expanded set S+{p}.
	var rspT float64
	for s, sid := range ic.ids {
		if sid >= 0 {
			rspT += ic.opt.Kernel.PairDist2(p.Dist2(ic.point(s)))
		}
	}
	// For each candidate slot, recompute its expanded responsibility from
	// scratch (this is the deliberate inefficiency: no incremental state).
	worst := -1
	var worstRsp float64
	for s, sid := range ic.ids {
		if sid < 0 {
			continue
		}
		e := ic.point(s)
		var rsp float64
		for s2, oid := range ic.ids {
			if oid >= 0 && s2 != s {
				rsp += ic.opt.Kernel.PairDist2(e.Dist2(ic.point(s2)))
			}
		}
		rsp += ic.opt.Kernel.PairDist2(e.Dist2(p)) // pair with the newcomer
		if worst == -1 || rsp > worstRsp {
			worst, worstRsp = s, rsp
		}
	}
	if worst >= 0 && worstRsp > rspT {
		// Valid replacement: evict worst, admit p.
		ic.deactivate(worst)
		ic.activate(ic.takeSlot(), p, id, ic.fillRow(p))
		ic.replacements++
		ic.passSwaps++
	}
}

// point returns slot s's point.
func (ic *Interchange) point(s int) geom.Point { return geom.Pt(ic.xs[s], ic.ys[s]) }

// Sample implements sampling.Sampler. The order is slot order, which is
// deterministic for a given input stream.
func (ic *Interchange) Sample() []geom.Point {
	out := make([]geom.Point, 0, ic.nActive)
	for s, id := range ic.ids {
		if id >= 0 {
			out = append(out, ic.point(s))
		}
	}
	return out
}

// SampleIDs implements sampling.Sampler.
func (ic *Interchange) SampleIDs() []int {
	out := make([]int, 0, ic.nActive)
	for _, id := range ic.ids {
		if id >= 0 {
			out = append(out, id)
		}
	}
	return out
}

// RecomputeObjective recomputes the exact objective and all
// responsibilities from scratch in O(K²), repairing any floating-point
// drift accumulated by incremental updates, and returns the exact value.
// Long-running convergence loops call this between passes. Each active
// slot's row runs against the slots after it, uncut; an inactive slot's
// κ̃ is 0, so the sums are those over active pairs (i, j > i).
func (ic *Interchange) RecomputeObjective() float64 {
	clear(ic.rsp)
	var obj float64
	for i, id := range ic.ids {
		if id < 0 {
			continue
		}
		row := ic.row[i+1:]
		ic.opt.Kernel.PairRowXY(ic.xs[i], ic.ys[i], ic.xs[i+1:], ic.ys[i+1:], math.Inf(1), row)
		for d, l := range row {
			ic.rsp[i] += l
			ic.rsp[i+1+d] += l
			obj += l
		}
	}
	ic.objective = obj
	return obj
}

// Objective computes Σ_{i<j} κ̃ for an arbitrary point set; the exact
// solver, tests, and the experiment harness share this reference
// implementation.
func Objective(k proximity.Func, pts []geom.Point) float64 {
	var obj float64
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			obj += k.PairDist2(pts[i].Dist2(pts[j]))
		}
	}
	return obj
}

// Converge streams pts through ic repeatedly until a full pass makes no
// replacement or maxPasses is reached, and returns the number of passes
// run. The paper notes Interchange "should be run until no more valid
// replacements are possible" but that in practice a time-bounded prefix
// already gives high quality; callers wanting the fixed point use this.
func Converge(ic *Interchange, pts []geom.Point, maxPasses int) int {
	passes := 0
	for passes < maxPasses {
		ic.BeginPass()
		for i, p := range pts {
			ic.Add(p, i)
		}
		passes++
		ic.RecomputeObjective()
		if ic.PassSwaps() == 0 {
			break
		}
	}
	return passes
}
