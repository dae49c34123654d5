//go:build amd64

package cpufeat

// cpuid and xgetbv are implemented in cpuid_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

const (
	// CPUID.1:ECX bits.
	cpuidFMA     = 1 << 12
	cpuidOSXSAVE = 1 << 27
	cpuidAVX     = 1 << 28
	// CPUID.7.0:EBX bits.
	cpuidAVX2    = 1 << 5
	cpuidAVX512F = 1 << 16
	// XCR0 bits: the OS saves XMM (bit 1) and YMM (bit 2) state on
	// context switch. Without both, executing VEX.256 code corrupts
	// register state, so AVX support must be reported off.
	xcr0AVXState = 0x6
	// XCR0 bits 5-7: opmask, the upper halves of ZMM0-15 and ZMM16-31.
	// EVEX code needs all three on top of the AVX state.
	xcr0AVX512State = 0xE6
)

func init() {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 1 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&cpuidOSXSAVE == 0 {
		return
	}
	xcr0, _ := xgetbv()
	if xcr0&xcr0AVXState != xcr0AVXState {
		return
	}
	X86.HasAVX = ecx1&cpuidAVX != 0
	X86.HasFMA = ecx1&cpuidFMA != 0
	if maxID < 7 || !X86.HasAVX {
		return
	}
	_, ebx7, _, _ := cpuid(7, 0)
	X86.HasAVX2 = ebx7&cpuidAVX2 != 0
	X86.HasAVX512F = X86.HasAVX2 && ebx7&cpuidAVX512F != 0 && xcr0&xcr0AVX512State == xcr0AVX512State
}
