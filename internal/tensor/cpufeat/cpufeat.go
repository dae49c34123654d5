// Package cpufeat probes the CPU features the tensor kernel dispatch
// ladder keys on, in the style of the standard library's internal/cpu:
// a raw CPUID/XGETBV probe at init with the results published as plain
// bools, no dependency on golang.org/x/sys. Only the bits the AVX2+FMA
// kernel tier and its AVX-512 lanes need are decoded.
package cpufeat

// X86 holds the amd64 feature bits relevant to kernel selection. All
// fields are false on every other architecture. HasAVX2 and HasFMA are
// only reported true when the OS has also enabled YMM state saving
// (OSXSAVE + XCR0), so a true value means the AVX2+FMA kernels are
// actually executable. HasAVX512F likewise needs the OS to save the
// opmask and ZMM state, and is only reported on top of HasAVX2.
var X86 struct {
	HasAVX     bool
	HasAVX2    bool
	HasFMA     bool
	HasAVX512F bool
}
