package runner

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestDetectAVX512MatchesCPUInfo pins the cpuid/xgetbv stub against the
// kernel's own view: on linux/amd64, hasAVX512F must match the avx512f
// flag in /proc/cpuinfo, which the kernel reports only when the CPU has
// the feature and it enables the ZMM and opmask state.
func TestDetectAVX512MatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skipf("/proc/cpuinfo is linux-only, GOOS is %s", runtime.GOOS)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		want := slices.Contains(strings.Fields(flags), "avx512f")
		if hasAVX512F != want {
			t.Fatalf("detected AVX-512F %v, /proc/cpuinfo avx512f %v", hasAVX512F, want)
		}
		t.Logf("AVX-512F: %v", want)
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
