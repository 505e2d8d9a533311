package proximity

import "repro/internal/cpufeat"

// useExpAsm gates expRowAsm. AVX2 and FMA (both with OS YMM state) imply
// math's own useFMA, so math.Exp runs the fused sequence the body copies.
var useExpAsm = cpufeat.AVX2 && cpufeat.FMA

// expRowAsm is in exp_amd64.s. len(src) is a multiple of four and
// len(dst) >= len(src). It returns how many leading lanes it wrote: all
// of them, or the start of the first group holding a lane outside
// [-708, 709] that is not below -746.
//
//go:noescape
func expRowAsm(dst, src []float64) int
