//go:build !amd64

package cpufeat

// AVX2 and FMA are x86 extensions.
const AVX2, FMA = false, false
