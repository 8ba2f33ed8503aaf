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
