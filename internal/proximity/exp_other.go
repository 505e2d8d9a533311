//go:build !amd64

package proximity

const useExpAsm = false

func expRowAsm(dst, src []float64) int { panic("proximity: expRowAsm without amd64") }
