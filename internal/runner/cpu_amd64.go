package runner

// hasAVX512F reports whether the AVX-512 lane kernels can run: the CPU
// has AVX-512F and the OS saves the opmask and full ZMM register state
// across context switches. Detected once at init.
var hasAVX512F = detectAVX512F()

// cpuid executes CPUID with the given leaf (EAX) and subleaf (ECX).
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0, the register-state components the OS enables.
// Call it only when CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

func detectAVX512F() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx512f = 1 << 16 // CPUID.(7,0):EBX
		// XCR0: SSE, AVX, opmask, ZMM_Hi256 and Hi16_ZMM state.
		zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512f != 0
}

// asmLanes returns the AVX-512 lane kernels, or nil where the CPU or
// OS cannot run them.
func asmLanes() *laneTable {
	if hasAVX512F {
		return &avx512Lanes
	}
	return nil
}
