package gf256

// useAVX2 selects the VPSHUFB kernel. It is a property of the host, read
// once at init, not an option.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the YMM
// registers across context switches (OSXSAVE set, XCR0 enabling XMM and YMM
// state).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func mulAddSlice(t *nibbleTable, src, dst []byte) {
	if useAVX2 && len(src) >= 32 {
		n := len(src) &^ 31
		mulAddAVX2(t, src[:n], dst[:n])
		src, dst = src[n:], dst[n:]
	}
	mulAddGeneric(t, src, dst)
}

// mulAddAVX2 computes dst[i] ^= c·src[i] over the first len(src)/32 blocks
// of 32 bytes, c being t's coefficient; the caller handles the tail.
//
//go:noescape
func mulAddAVX2(t *nibbleTable, src, dst []byte)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
