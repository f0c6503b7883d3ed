#include "textflag.h"

// func mulAddAVX2(t *nibbleTable, src, dst []byte)
//
// Per 32-byte block: split src into low and high nibbles, look both up in
// c's nibble tables with VPSHUFB (each 16-byte table broadcast to both
// 128-bit lanes), XOR the two products and XOR the result into dst.
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-56
	MOVQ t+0(FP), AX
	MOVQ src_base+8(FP), SI
	MOVQ src_len+16(FP), CX
	MOVQ dst_base+32(FP), DI
	SHRQ $5, CX
	JZ   done

	VBROADCASTI128 (AX), Y0   // c·x for the low nibble x
	VBROADCASTI128 16(AX), Y1 // c·(x<<4) for the high nibble x
	MOVQ           $0x0f0f0f0f0f0f0f0f, BX
	MOVQ           BX, X2
	VPBROADCASTQ   X2, Y2     // nibble mask

loop:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR   Y3, Y4, Y3
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
