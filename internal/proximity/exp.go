package proximity

import "math"

// forceScalarExp routes expRow through the math.Exp loop, so tests can
// run the reference path on a CPU that has the vector one.
var forceScalarExp bool

// expRow sets dst[i] = math.Exp(src[i]) for every i, bit for bit; dst is
// src itself or shares no element with it, and holds at least len(src).
//
// Where the CPU has AVX2 and FMA, groups of four lanes run
// expRowAsm, which repeats math.Exp's own FMA instruction sequence
// on four lanes at once. math.Exp takes that sequence on exactly these
// CPUs, so the bits agree. The body settles a lane in [-708, 709] and
// any x < -746 (whose exponential is +0, -Inf included) itself; it stops
// before a group holding a lane it cannot settle (NaN, the subnormal
// band between, an overflow), and that group and the last len%4 lanes
// take math.Exp.
func expRow(dst, src []float64) {
	dst = dst[:len(src)]
	i := 0
	if useExpAsm && !forceScalarExp {
		for n := len(src) &^ 3; i < n; {
			i += expRowAsm(dst[i:n], src[i:n])
			for end := min(i+4, n); i < end; i++ {
				dst[i] = math.Exp(src[i])
			}
		}
	}
	for ; i < len(src); i++ {
		dst[i] = math.Exp(src[i])
	}
}
