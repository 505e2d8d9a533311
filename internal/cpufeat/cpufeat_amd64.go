package cpufeat

// AVX2 reports AVX2 and POPCNT, which every AVX2 part also carries; FMA
// reports the FMA3 fused multiply-add instructions.
var AVX2, FMA = detect()

// Bodies in cpufeat_amd64.s.

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func detect() (avx2, fma bool) {
	_, _, ecx, _ := cpuid(1, 0)
	const fma3, popcnt, osxsave, avx = 1 << 12, 1 << 23, 1 << 27, 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false, false
	}
	if eax, _ := xgetbv(); eax&6 != 6 {
		return false, false
	}
	_, ebx, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return ebx&avx2Bit != 0 && ecx&popcnt != 0, ecx&fma3 != 0
}
