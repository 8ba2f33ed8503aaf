#include "textflag.h"

// bswapMask reverses the 16 octets of an XMM register under PSHUFB, so a
// block loaded from memory reads as one big-endian 128-bit number: the
// block's first message bit is bit 127, the coefficient of x^127.
DATA bswapMask<>+0(SB)/8, $0x08090A0B0C0D0E0F
DATA bswapMask<>+8(SB)/8, $0x0001020304050607
GLOBL bswapMask<>(SB), RODATA|NOPTR, $16

// FOLD multiplies the 128-bit accumulator A = H·x^64 + L by x^n modulo the
// generator — H·K.hi ⊕ L·K.lo, with K = (x^(n+64), x^n) mod P — and XORs
// block B in. T is scratch. Each product is at most 95 bits wide.
#define FOLD(A, K, T, B) \
	MOVO      A, T;       \
	PCLMULQDQ $0x00, K, A; \
	PCLMULQDQ $0x11, K, T; \
	PXOR      T, A;       \
	PXOR      B, A

// func foldBlocks(crc uint32, p []byte) (hi, lo uint64)
//
// p is a whole number of 16-octet blocks, at least four (crcFold checks).
TEXT ·foldBlocks(SB), NOSPLIT, $0-48
	MOVL  crc+0(FP), AX
	MOVQ  p_base+8(FP), SI
	MOVQ  p_len+16(FP), CX
	MOVOU bswapMask<>(SB), X8
	MOVOU ·foldK+0(SB), X9   // x^512, x^576 mod P
	MOVOU ·foldK+16(SB), X10 // x^128, x^192 mod P

	// The first 64 octets seed four accumulators, and the register comes
	// in as the first 32 message bits.
	MOVOU  0(SI), X0
	MOVOU  16(SI), X1
	MOVOU  32(SI), X2
	MOVOU  48(SI), X3
	PSHUFB X8, X0
	PSHUFB X8, X1
	PSHUFB X8, X2
	PSHUFB X8, X3
	MOVQ   AX, X4
	PSLLDQ $12, X4
	PXOR   X4, X0
	ADDQ   $64, SI
	SUBQ   $64, CX

loop64:
	CMPQ   CX, $64
	JB     reduce
	MOVOU  0(SI), X4
	MOVOU  16(SI), X5
	MOVOU  32(SI), X6
	MOVOU  48(SI), X7
	PSHUFB X8, X4
	PSHUFB X8, X5
	PSHUFB X8, X6
	PSHUFB X8, X7
	FOLD(X0, X9, X11, X4)
	FOLD(X1, X9, X12, X5)
	FOLD(X2, X9, X13, X6)
	FOLD(X3, X9, X14, X7)
	ADDQ   $64, SI
	SUBQ   $64, CX
	JMP    loop64

	// Four accumulators become one, 128 bits apart, then the remaining
	// blocks fold in one at a time.
reduce:
	FOLD(X0, X10, X11, X1)
	FOLD(X0, X10, X11, X2)
	FOLD(X0, X10, X11, X3)

loop16:
	CMPQ   CX, $16
	JB     done
	MOVOU  0(SI), X4
	PSHUFB X8, X4
	FOLD(X0, X10, X11, X4)
	ADDQ   $16, SI
	SUBQ   $16, CX
	JMP    loop16

done:
	MOVQ   X0, lo+40(FP)
	PSRLDQ $8, X0
	MOVQ   X0, hi+32(FP)
	RET

// func clmul() bool
TEXT ·clmul(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x202, CX // ECX bit 1 PCLMULQDQ, bit 9 SSSE3 (PSHUFB)
	CMPL  CX, $0x202
	SETEQ ret+0(FP)
	RET

// func moveFoldCells(crc uint32, dst, src []byte, dstStep, srcStep, n int) (hi, lo uint64)
//
// n >= 1; dst and src hold n payloads at their steps (crcMoveFold checks).
// Each payload is three blocks: each is loaded once, stored to dst as it
// came and folded after PSHUFB. Six accumulators step two payloads (768
// bits) at a time, then merge to three one payload apart, where an odd
// payload left over folds in, and three merge to one 128 bits apart.
// Three accumulators stepping one payload (x^384, x^448) were the first
// build; on the host in crc.go's file comment, three vs six, receive
// direction, ns per call (BenchmarkAAL5MoveCells, three runs each): 1
// payload 29-35 vs 25-29, 21 payloads 79-87 vs 61-79, 170 payloads 516-578
// vs 376-530. A step of three blocks waits on one PCLMULQDQ's latency;
// six keep two in flight. Against the two passes it replaces (the
// moveThenUpdate rows), in a later hour: 1 payload 29-31 vs 23-25, 21
// payloads 127-169 vs 79-87, 170 payloads 1157-1274 vs 502-613.
TEXT ·moveFoldCells(SB), NOSPLIT, $0-96
	MOVL  crc+0(FP), AX
	MOVQ  dst_base+8(FP), DI
	MOVQ  src_base+32(FP), SI
	MOVQ  dstStep+56(FP), DX
	MOVQ  srcStep+64(FP), BX
	MOVQ  n+72(FP), CX
	MOVOU bswapMask<>(SB), X8
	MOVOU ·foldK+16(SB), X10 // x^128, x^192 mod P
	MOVOU ·foldK+32(SB), X9  // x^384, x^448 mod P
	MOVOU ·foldK+48(SB), X7  // x^768, x^832 mod P

	// The first payload seeds three accumulators, and the register comes
	// in as its first 32 message bits.
	MOVOU  0(SI), X0
	MOVOU  16(SI), X1
	MOVOU  32(SI), X2
	MOVOU  X0, 0(DI)
	MOVOU  X1, 16(DI)
	MOVOU  X2, 32(DI)
	PSHUFB X8, X0
	PSHUFB X8, X1
	PSHUFB X8, X2
	MOVQ   AX, X4
	PSLLDQ $12, X4
	PXOR   X4, X0
	ADDQ   BX, SI
	ADDQ   DX, DI
	DECQ   CX
	JZ     merge3

	// A second payload seeds three more.
	MOVOU  0(SI), X3
	MOVOU  16(SI), X4
	MOVOU  32(SI), X5
	MOVOU  X3, 0(DI)
	MOVOU  X4, 16(DI)
	MOVOU  X5, 32(DI)
	PSHUFB X8, X3
	PSHUFB X8, X4
	PSHUFB X8, X5
	ADDQ   BX, SI
	ADDQ   DX, DI
	DECQ   CX

loop2:
	CMPQ   CX, $2
	JB     merge6
	MOVOU  0(SI), X11
	MOVOU  16(SI), X12
	MOVOU  32(SI), X13
	MOVOU  X11, 0(DI)
	MOVOU  X12, 16(DI)
	MOVOU  X13, 32(DI)
	PSHUFB X8, X11
	PSHUFB X8, X12
	PSHUFB X8, X13
	FOLD(X0, X7, X6, X11)
	FOLD(X1, X7, X6, X12)
	FOLD(X2, X7, X6, X13)
	ADDQ   BX, SI
	ADDQ   DX, DI
	MOVOU  0(SI), X11
	MOVOU  16(SI), X12
	MOVOU  32(SI), X13
	MOVOU  X11, 0(DI)
	MOVOU  X12, 16(DI)
	MOVOU  X13, 32(DI)
	PSHUFB X8, X11
	PSHUFB X8, X12
	PSHUFB X8, X13
	FOLD(X3, X7, X6, X11)
	FOLD(X4, X7, X6, X12)
	FOLD(X5, X7, X6, X13)
	ADDQ   BX, SI
	ADDQ   DX, DI
	SUBQ   $2, CX
	JMP    loop2

	// Six accumulators become three, one payload apart; an odd payload
	// left over folds in the same way.
merge6:
	FOLD(X0, X9, X6, X3)
	FOLD(X1, X9, X6, X4)
	FOLD(X2, X9, X6, X5)
	TESTQ  CX, CX
	JZ     merge3
	MOVOU  0(SI), X11
	MOVOU  16(SI), X12
	MOVOU  32(SI), X13
	MOVOU  X11, 0(DI)
	MOVOU  X12, 16(DI)
	MOVOU  X13, 32(DI)
	PSHUFB X8, X11
	PSHUFB X8, X12
	PSHUFB X8, X13
	FOLD(X0, X9, X6, X11)
	FOLD(X1, X9, X6, X12)
	FOLD(X2, X9, X6, X13)

	// Three accumulators become one, 128 bits apart.
merge3:
	FOLD(X0, X10, X6, X1)
	FOLD(X0, X10, X6, X2)
	MOVQ   X0, lo+88(FP)
	PSRLDQ $8, X0
	MOVQ   X0, hi+80(FP)
	RET
