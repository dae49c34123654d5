package cpufeat

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestFeatureImplications checks the invariants the probe guarantees:
// AVX2 is only reported on top of AVX (the probe gates on OS YMM state
// for both), AVX-512F only on top of AVX2, and nothing is reported off
// amd64.
func TestFeatureImplications(t *testing.T) {
	if X86.HasAVX2 && !X86.HasAVX {
		t.Fatal("HasAVX2 without HasAVX: the probe must gate AVX2 on AVX+OSXSAVE")
	}
	if X86.HasAVX512F && !X86.HasAVX2 {
		t.Fatal("HasAVX512F without HasAVX2: the probe must gate AVX-512F on AVX2")
	}
	if runtime.GOARCH != "amd64" && (X86.HasAVX || X86.HasAVX2 || X86.HasFMA || X86.HasAVX512F) {
		t.Fatalf("non-amd64 reports x86 features: %+v", X86)
	}
}

// TestAgainstProcCPUInfo cross-checks the CPUID decode against the
// kernel's view when /proc/cpuinfo is available (linux). The OS flags
// are a superset condition: if the kernel advertises avx2/fma, our
// probe (which additionally checks OSXSAVE+XCR0) should agree.
func TestAgainstProcCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("cross-check needs linux/amd64 /proc/cpuinfo")
	}
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("reading /proc/cpuinfo: %v", err)
	}
	flags := ""
	for _, line := range strings.Split(string(blob), "\n") {
		if strings.HasPrefix(line, "flags") {
			flags = " " + line[strings.Index(line, ":")+1:] + " "
			break
		}
	}
	if flags == "" {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	has := func(f string) bool { return strings.Contains(flags, " "+f+" ") }
	if got, want := X86.HasAVX2, has("avx2"); got != want {
		t.Errorf("HasAVX2 = %v, /proc/cpuinfo says %v", got, want)
	}
	if got, want := X86.HasFMA, has("fma"); got != want {
		t.Errorf("HasFMA = %v, /proc/cpuinfo says %v", got, want)
	}
	if got, want := X86.HasAVX, has("avx"); got != want {
		t.Errorf("HasAVX = %v, /proc/cpuinfo says %v", got, want)
	}
	// The kernel only lists avx512f when it saves the ZMM and opmask
	// state, which is the probe's XCR0 condition.
	if got, want := X86.HasAVX512F, has("avx512f") && has("avx2"); got != want {
		t.Errorf("HasAVX512F = %v, /proc/cpuinfo says %v", got, want)
	}
}
