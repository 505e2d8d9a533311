//go:build amd64

package store

import "repro/internal/geom"

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

func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbvAsm() (eax, edx uint32)

// useSelAsm gates the AVX2 kernel bodies. The selection kernels need
// AVX2 (VPSHUFB on ids, VGATHERQPD) plus POPCNT, and the OS must have
// enabled YMM state saving (OSXSAVE + XCR0 bits 1|2).
var useSelAsm = detectAVX2()

func detectAVX2() bool {
	_, _, ecx, _ := cpuidAsm(1, 0)
	const osxsave, avx, popcnt = 1 << 27, 1 << 28, 1 << 23
	if ecx&osxsave == 0 || ecx&avx == 0 || ecx&popcnt == 0 {
		return false
	}
	if eax, _ := xgetbvAsm(); eax&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuidAsm(7, 0)
	const avx2 = 1 << 5
	return ebx&avx2 != 0
}
