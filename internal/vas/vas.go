// Package vas implements the paper's primary contribution: the
// Visualization-Aware Sampling problem (Definition 1) and the Interchange
// approximation algorithm (§IV-B) with its three optimization levels —
// the naive replacement test (NoES), the Expand/Shrink procedure (ES,
// Algorithm 1), and Expand/Shrink with the locality speed-up (ES+Loc).
//
// ES and ES+Loc decide each offer from the newcomer's row of κ̃ and write
// only when the swap is taken, so a rejected offer costs K kernel values.
// For the Gaussian those are one proximity.Func.PairRow call: a packed
// exp, four lanes at a time on a CPU with AVX2 and FMA, that returns
// math.Exp's bits, so the sample is the same on every CPU.
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

// entry is one sample slot. Slots are stable, so the slot order of
// SampleIDs is deterministic for a given input stream.
type entry struct {
	p      geom.Point
	id     int
	rsp    float64 // Σ_j κ̃(p, p_j) over active slots ≠ this one
	active bool
}

// Interchange is the streaming VAS sampler. It implements
// sampling.Sampler. Not safe for concurrent use.
type Interchange struct {
	opt     Options
	entries []entry // K+1 slots; at most K active outside Add
	free    []int   // inactive slot indices
	nActive int

	// objective is Σ_{i<j} κ̃ over active slots, maintained incrementally.
	objective float64

	// cutoff2 is the squared pair distance beyond which fillRow counts
	// κ̃ as zero: PairSupport² for ESLoc, +Inf otherwise.
	cutoff2 float64
	row     []float64 // fillRow's scratch, one κ̃ per slot

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
	ic := &Interchange{
		opt:     opt,
		entries: make([]entry, opt.K+1),
		free:    make([]int, 0, opt.K+1),
		row:     make([]float64, opt.K+1),
		cutoff2: math.Inf(1),
	}
	for i := opt.K; i >= 0; i-- {
		ic.free = append(ic.free, i)
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

// Add implements sampling.Sampler. It offers one point; id >= 0 is its index.
func (ic *Interchange) Add(p geom.Point, id int) {
	if id < 0 {
		panic(fmt.Sprintf("vas: Add with negative id %d", id))
	}
	if w := id >> 6; w >= len(ic.inSample) {
		ic.inSample = append(ic.inSample, make([]uint64, w+1-len(ic.inSample))...)
	}
	if ic.inSample[id>>6]&(1<<(id&63)) != 0 {
		return
	}
	if ic.nActive < ic.opt.K {
		slot := ic.takeSlot()
		ic.activate(slot, p, id, ic.fillRow(p, slot))
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

// fillRow returns κ̃(p, slot s) for each slot s: 0 for inactive slots,
// skip, and pairs beyond cutoff2 (d2 > cutoff2, so a pair exactly at the
// support radius still counts), which it marks +Inf for the kernel.
func (ic *Interchange) fillRow(p geom.Point, skip int) []float64 {
	entries, row, cutoff2 := ic.entries, ic.row[:len(ic.entries)], ic.cutoff2
	for s := range entries {
		d2 := math.Inf(1)
		if e := &entries[s]; e.active && s != skip {
			if d2 = p.Dist2(e.p); d2 > cutoff2 {
				d2 = math.Inf(1)
			}
		}
		row[s] = d2
	}
	ic.opt.Kernel.PairRow(row)
	return row
}

// activate installs (p, id) into slot, where row is fillRow(p, slot):
// it adds the row into every responsibility and the objective. Cost O(K).
func (ic *Interchange) activate(slot int, p geom.Point, id int, row []float64) {
	var rsp float64
	for s, l := range row {
		ic.entries[s].rsp += l
		rsp += l
	}
	e := &ic.entries[slot]
	e.p, e.id, e.active, e.rsp = p, id, true, rsp
	ic.inSample[id>>6] |= 1 << (id & 63)
	ic.objective += rsp
	ic.nActive++
}

// deactivate removes slot from the sample, unwinding what activate did.
func (ic *Interchange) deactivate(slot int) {
	e := &ic.entries[slot]
	for s, l := range ic.fillRow(e.p, slot) {
		ic.entries[s].rsp -= l
	}
	ic.objective -= e.rsp
	ic.inSample[e.id>>6] &^= 1 << (e.id & 63)
	e.active = false
	e.rsp = 0
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
	row := ic.fillRow(p, slot)
	// Evict the first slot with the largest; ties go to t (Theorem 2:
	// replace only on a strict improvement), so no swap cycles forever.
	rspT, worst, worstRsp := 0.0, -1, math.Inf(-1)
	for s, l := range row {
		rspT += l
		if r := ic.entries[s].rsp + l; r > worstRsp {
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
	for s := range ic.entries {
		e := &ic.entries[s]
		if !e.active {
			continue
		}
		rspT += ic.opt.Kernel.PairDist2(p.Dist2(e.p))
	}
	// For each candidate slot, recompute its expanded responsibility from
	// scratch (this is the deliberate inefficiency: no incremental state).
	worst := -1
	var worstRsp float64
	for s := range ic.entries {
		e := &ic.entries[s]
		if !e.active {
			continue
		}
		var rsp float64
		for s2 := range ic.entries {
			o := &ic.entries[s2]
			if !o.active || s2 == s {
				continue
			}
			rsp += ic.opt.Kernel.PairDist2(e.p.Dist2(o.p))
		}
		rsp += ic.opt.Kernel.PairDist2(e.p.Dist2(p)) // pair with the newcomer
		if worst == -1 || rsp > worstRsp {
			worst, worstRsp = s, rsp
		}
	}
	if worst >= 0 && worstRsp > rspT {
		// Valid replacement: evict worst, admit p.
		ic.deactivate(worst)
		slot := ic.takeSlot()
		ic.activate(slot, p, id, ic.fillRow(p, slot))
		ic.replacements++
		ic.passSwaps++
	}
}

// Sample implements sampling.Sampler. The order is slot order, which is
// deterministic for a given input stream.
func (ic *Interchange) Sample() []geom.Point {
	out := make([]geom.Point, 0, ic.nActive)
	for s := range ic.entries {
		if ic.entries[s].active {
			out = append(out, ic.entries[s].p)
		}
	}
	return out
}

// SampleIDs implements sampling.Sampler.
func (ic *Interchange) SampleIDs() []int {
	out := make([]int, 0, ic.nActive)
	for s := range ic.entries {
		if ic.entries[s].active {
			out = append(out, ic.entries[s].id)
		}
	}
	return out
}

// RecomputeObjective recomputes the exact objective and all
// responsibilities from scratch in O(K²), repairing any floating-point
// drift accumulated by incremental updates, and returns the exact value.
// Long-running convergence loops call this between passes.
func (ic *Interchange) RecomputeObjective() float64 {
	active := make([]int, 0, ic.nActive)
	for s := range ic.entries {
		if ic.entries[s].active {
			ic.entries[s].rsp = 0
			active = append(active, s)
		}
	}
	var obj float64
	for i := 0; i < len(active); i++ {
		for j := i + 1; j < len(active); j++ {
			a, b := &ic.entries[active[i]], &ic.entries[active[j]]
			l := ic.opt.Kernel.PairDist2(a.p.Dist2(b.p))
			a.rsp += l
			b.rsp += l
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
