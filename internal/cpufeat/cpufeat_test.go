package cpufeat

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestMatchesCPUInfo: on Linux the kernel lists the extensions it lets
// user code execute; the probe must agree with it.
func TestMatchesCPUInfo(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if AVX2 || FMA {
			t.Fatalf("AVX2=%v FMA=%v off amd64", AVX2, FMA)
		}
		return
	}
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var flags map[string]bool
	for _, line := range strings.Split(string(b), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = map[string]bool{}
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	if want := flags["avx2"] && flags["popcnt"]; AVX2 != want {
		t.Errorf("AVX2 = %v, /proc/cpuinfo says %v", AVX2, want)
	}
	if want := flags["fma"] && flags["avx"]; FMA != want {
		t.Errorf("FMA = %v, /proc/cpuinfo says %v", FMA, want)
	}
}
