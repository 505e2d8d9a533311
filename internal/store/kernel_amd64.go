//go:build amd64

package store

import (
	"repro/internal/cpufeat"
	"repro/internal/geom"
)

// Assembly bodies in kernel_amd64.s. The selection bodies require len to be a multiple
// of four and len(dst) >= len(input): each 4-lane group writes a full
// 16-byte store at dst[k], so the destination must absorb the overstore
// even when fewer than four lanes survive. The bodies keep no pointer
// past the call, so callers' selection buffers may live on the stack.

//go:noescape
func selRangeAsm(dst []int32, col []float64, lo int32, min, max float64) int

//go:noescape
func selGatherAsm(dst []int32, ids []int32, col []float64, min, max float64) int

//go:noescape
func selRectGatherAsm(dst []int32, ids []int32, xs, ys []float64, r geom.Rect) int

// useSelAsm gates the AVX2 kernel bodies. The selection kernels need
// AVX2 (VPSHUFB on ids, VGATHERQPD) plus POPCNT, with YMM state saved by
// the OS; cpufeat.AVX2 reports all three.
var useSelAsm = cpufeat.AVX2
