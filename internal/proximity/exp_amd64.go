package proximity

import "repro/internal/cpufeat"

// useExpAsm gates expRowAsm and pairRowXYAsm. AVX2 and FMA (both with OS
// YMM state) imply math's own useFMA, so math.Exp runs the fused
// sequence the bodies copy.
var useExpAsm = cpufeat.AVX2 && cpufeat.FMA

// expRowAsm is in exp_amd64.s. len(src) is a multiple of four and
// len(dst) >= len(src). It returns how many leading lanes it wrote: all
// of them, or the start of the first group holding a lane outside
// [-708, 709] that is not below -746.
//
//go:noescape
func expRowAsm(dst, src []float64) int

// pairRowXYAsm is in exp_amd64.s: the Gaussian PairRowXY on four lanes
// at a time, with negInv2e2 = -1/(2ε²). len(xs) is a multiple of four,
// and len(ys) and len(row) are at least len(xs). It returns how many
// leading lanes it wrote, stopping as expRowAsm does.
//
//go:noescape
func pairRowXYAsm(px, py float64, xs, ys []float64, cutoff2, negInv2e2 float64, row []float64) int
