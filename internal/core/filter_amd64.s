#include "textflag.h"

// func filterKernel(eps []uint32, base uint32, words []uint32, cands []uint32) int
TEXT ·filterKernel(SB), NOSPLIT, $0-88
	MOVQ eps_base+0(FP), SI
	MOVQ eps_len+8(FP), CX
	MOVQ words_base+32(FP), DX
	MOVQ cands_base+56(FP), DI
	XORQ R9, R9 // candidates written
	SHRQ $3, CX // steps of eight endpoints
	JZ   done

	MOVL base+24(FP), AX
	VMOVD AX, X14
	VPBROADCASTD X14, Y14 // the step's first index
	MOVQ words_len+40(FP), AX
	DECL AX
	VMOVD AX, X13
	VPBROADCASTD X13, Y13 // word mask
	MOVL $0x7feb352d, AX
	VMOVD AX, X12
	VPBROADCASTD X12, Y12
	MOVL $0x846ca68b, AX
	VMOVD AX, X11
	VPBROADCASTD X11, Y11
	MOVL $31, AX
	VMOVD AX, X10
	VPBROADCASTD X10, Y10
	MOVL $1, AX
	VMOVD AX, X9
	VPBROADCASTD X9, Y9
	MOVL $8, AX
	VMOVD AX, X8
	VPBROADCASTD X8, Y8
	LEAQ ·filterLanes(SB), R8

loop:
	// hash32 of eight endpoints
	VMOVDQU (SI), Y0
	VPSRLD  $16, Y0, Y1
	VPXOR   Y1, Y0, Y0
	VPMULLD Y12, Y0, Y0
	VPSRLD  $15, Y0, Y1
	VPXOR   Y1, Y0, Y0
	VPMULLD Y11, Y0, Y0
	VPSRLD  $16, Y0, Y1
	VPXOR   Y1, Y0, Y0

	// Gather each hash's word. Zeroing the destination first keeps the
	// gather from waiting on the last step's result.
	VPAND      Y13, Y0, Y1
	VPCMPEQD   Y2, Y2, Y2
	VPXOR      Y3, Y3, Y3
	VPGATHERDD Y2, (DX)(Y1*4), Y3

	// The key's bits, 1<<(h>>27) | 1<<(h>>22&31), must both be set.
	VPSRLD   $27, Y0, Y4
	VPSLLVD  Y4, Y9, Y4
	VPSRLD   $22, Y0, Y5
	VPAND    Y10, Y5, Y5
	VPSLLVD  Y5, Y9, Y5
	VPOR     Y5, Y4, Y4
	VPAND    Y4, Y3, Y3
	VPCMPEQD Y4, Y3, Y3

	// Compress: the passing lanes' indices go first.
	VMOVMSKPS Y3, AX
	VPMOVZXBD (R8)(AX*8), Y6
	VPADDD    Y14, Y6, Y6
	VMOVDQU   Y6, (DI)(R9*4)
	POPCNTL   AX, AX
	ADDQ      AX, R9

	VPADDD Y8, Y14, Y14
	ADDQ   $32, SI
	DECQ   CX
	JNZ    loop
	VZEROUPPER

done:
	MOVQ R9, ret+80(FP)
	RET

// func filterKernelSupported() bool
TEXT ·filterKernelSupported(SB), NOSPLIT, $0-1
	XORL  AX, AX
	CPUID
	CMPL  AX, $7
	JLT   no
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	// ECX: POPCNT (bit 23), OSXSAVE (27) and AVX (28)
	ANDL  $0x18800000, CX
	CMPL  CX, $0x18800000
	JNE   no
	XORL  CX, CX
	XGETBV
	// XCR0: the OS saves the XMM (bit 1) and YMM (bit 2) registers
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	// EBX bit 5: AVX2
	SHRL  $5, BX
	ANDL  $1, BX
	MOVB  BX, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
