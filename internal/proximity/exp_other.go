//go:build !amd64

package proximity

const useExpAsm = false

func expRowAsm(dst, src []float64) int { panic("proximity: expRowAsm without amd64") }

func pairRowXYAsm(px, py float64, xs, ys []float64, cutoff2, negInv2e2 float64, row []float64) int {
	panic("proximity: pairRowXYAsm without amd64")
}
