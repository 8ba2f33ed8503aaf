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

// SHIFT is FOLD with no block: A becomes A·x^n, reduced to 96 bits. The
// kernels end a call that leaves the frame open with A·x^128, the
// accumulator the next call XORs its first block into (crcAcc).
#define SHIFT(A, K, T) \
	MOVO      A, T;       \
	PCLMULQDQ $0x00, K, A; \
	PCLMULQDQ $0x11, K, T; \
	PXOR      T, A

// REDUCE leaves V·x^32 mod P, the raw register after the message whose
// remainder is V, in the low 32 bits of R. KR holds (x^64, x^96) mod P and
// KB (μ, P) with μ = floor(x^64 / P); T is scratch, V is read only. Gopal
// et al.'s Barrett step: V·x^32 = H·x^96 + L·x^32 ≡ H·(x^96 mod P) ⊕ L·x^32,
// at most 96 bits; its top 32 bits fold again by x^64 to leave S, at most
// 64 bits; then floor(S / P) = floor(floor(S / x^32)·μ / x^32), and
// S mod P is the low 32 bits of S ⊕ floor(S / P)·P.
#define REDUCE(V, KR, KB, T, R) \
	MOVO      V, T;          \
	PCLMULQDQ $0x11, KR, T;  \
	MOVQ      V, R;          \
	PSLLDQ    $4, R;         \
	PXOR      T, R;          \
	MOVO      R, T;          \
	PCLMULQDQ $0x01, KR, T;  \
	MOVQ      R, R;          \
	PXOR      T, R;          \
	MOVO      R, T;          \
	PSRLQ     $32, T;        \
	PCLMULQDQ $0x00, KB, T;  \
	PSRLQ     $32, T;        \
	PCLMULQDQ $0x10, KB, T;  \
	PXOR      T, R

// LOAD3 loads the three 16-octet blocks of the payload at off(P) into A,
// B and C as they lie, for the store that moves them.
#define LOAD3(P, off, A, B, C) \
	MOVOU off(P), A;      \
	MOVOU off+16(P), B;   \
	MOVOU off+32(P), C

// STORE3 stores A, B and C as the payload at off(P).
#define STORE3(A, B, C, P, off) \
	MOVOU A, off(P);      \
	MOVOU B, off+16(P);   \
	MOVOU C, off+32(P)

// SWAP3 turns A, B and C into big-endian blocks under mask M.
#define SWAP3(M, A, B, C) \
	PSHUFB M, A; \
	PSHUFB M, B; \
	PSHUFB M, C

// FOLD3 folds A, B and C into the three accumulators X, Y and Z by K.
#define FOLD3(X, Y, Z, K, T, A, B, C) \
	FOLD(X, K, T, A); \
	FOLD(Y, K, T, B); \
	FOLD(Z, K, T, C)

// func foldBlocks(acc *crcAcc, p []byte) uint32
//
// p is a whole number of 16-octet blocks, at least one (foldRun and
// crcFold check). It folds p onto the accumulator, stores the accumulator
// the next call continues from and returns the register over the message
// so far.
TEXT ·foldBlocks(SB), NOSPLIT, $0-36
	MOVQ  acc+0(FP), DI
	MOVQ  p_base+8(FP), SI
	MOVQ  p_len+16(FP), CX
	MOVOU bswapMask<>(SB), X8
	MOVOU ·foldK+0(SB), X9   // x^512, x^576 mod P
	MOVOU ·foldK+16(SB), X10 // x^128, x^192 mod P
	MOVOU 0(DI), X15
	CMPQ  CX, $64
	JB    one

	// The first 64 octets seed four accumulators, the carried one XORed
	// into the first.
	MOVOU  0(SI), X0
	MOVOU  16(SI), X1
	MOVOU  32(SI), X2
	MOVOU  48(SI), X3
	PSHUFB X8, X0
	PSHUFB X8, X1
	PSHUFB X8, X2
	PSHUFB X8, X3
	PXOR   X15, X0
	ADDQ   $64, SI
	SUBQ   $64, CX

loop64:
	CMPQ   CX, $64
	JB     merge4
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
merge4:
	FOLD(X0, X10, X11, X1)
	FOLD(X0, X10, X11, X2)
	FOLD(X0, X10, X11, X3)
	JMP    loop16

	// Under four blocks the first seeds the one accumulator.
one:
	MOVOU  0(SI), X0
	PSHUFB X8, X0
	PXOR   X15, X0
	ADDQ   $16, SI
	SUBQ   $16, CX

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
	MOVOU ·foldK+80(SB), X12 // x^64, x^96 mod P
	MOVOU ·foldK+96(SB), X13 // μ, P
	REDUCE(X0, X12, X13, X11, X14)
	MOVQ  X14, AX
	MOVL  AX, ret+32(FP)
	SHIFT(X0, X10, X11)
	MOVOU X0, 0(DI)
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

// func foldSegment(acc *crcAcc, dst, src []byte, n int, h *cellHeaders, last bool)
//
// dst holds n+1 cells and src n payloads (segmentCells checks). Each of
// the n payloads is three blocks: each is loaded once from src, stored into
// its cell as it came and folded after PSHUFB, and the cell's header is
// stored beside it. Six accumulators step two payloads (768 bits) at a
// time, then merge to three one payload apart, where an odd payload left
// over folds in, and three merge to one 128 bits apart. Three accumulators
// stepping one payload were the first build of this loop; on the host in
// crc.go's file comment, three vs six, ns per call, three runs each: 1
// payload 29-35 vs 25-29, 21 payloads 79-87 vs 61-79, 170 payloads 516-578
// vs 376-530. A step of three blocks waits on one PCLMULQDQ's latency; six
// keep two in flight.
//
// The cell after the n, whose payload is already in place, closes the call.
// Unless last, it folds whole and takes h's first header. If last it is the
// frame's end: its first 44 octets fold — two blocks, then the 12-octet
// tail as one block shifted by x^96 — the accumulator reduces once, and the
// complemented register goes into the CRC field, h's second header beside.
TEXT ·foldSegment(SB), NOSPLIT, $0-73
	MOVQ  acc+0(FP), R8
	MOVQ  dst_base+8(FP), DI
	MOVQ  src_base+32(FP), SI
	MOVQ  n+56(FP), CX
	MOVQ  h+64(FP), R9
	MOVL  0(R9), R10
	MOVBLZX 4(R9), R11
	MOVOU bswapMask<>(SB), X8
	MOVOU ·foldK+16(SB), X10 // x^128, x^192 mod P
	MOVOU ·foldK+32(SB), X9  // x^384, x^448 mod P
	MOVOU ·foldK+48(SB), X7  // x^768, x^832 mod P
	MOVOU 0(R8), X15
	TESTQ CX, CX
	JZ    sclose

	// The first payload seeds three accumulators, the carried one XORed
	// into the first.
	LOAD3(SI, 0, X0, X1, X2)
	MOVL   R10, 0(DI)
	MOVB   R11, 4(DI)
	STORE3(X0, X1, X2, DI, 5)
	SWAP3(X8, X0, X1, X2)
	PXOR   X15, X0
	ADDQ   $48, SI
	ADDQ   $53, DI
	DECQ   CX
	JZ     smerge3

	// A second payload seeds three more.
	LOAD3(SI, 0, X3, X4, X5)
	MOVL   R10, 0(DI)
	MOVB   R11, 4(DI)
	STORE3(X3, X4, X5, DI, 5)
	SWAP3(X8, X3, X4, X5)
	ADDQ   $48, SI
	ADDQ   $53, DI
	DECQ   CX

sloop2:
	CMPQ   CX, $2
	JB     smerge6
	LOAD3(SI, 0, X11, X12, X13)
	MOVL   R10, 0(DI)
	MOVB   R11, 4(DI)
	STORE3(X11, X12, X13, DI, 5)
	SWAP3(X8, X11, X12, X13)
	FOLD3(X0, X1, X2, X7, X6, X11, X12, X13)
	LOAD3(SI, 48, X11, X12, X13)
	MOVL   R10, 53(DI)
	MOVB   R11, 57(DI)
	STORE3(X11, X12, X13, DI, 58)
	SWAP3(X8, X11, X12, X13)
	FOLD3(X3, X4, X5, X7, X6, X11, X12, X13)
	ADDQ   $96, SI
	ADDQ   $106, DI
	SUBQ   $2, CX
	JMP    sloop2

	// Six accumulators become three, one payload apart; an odd payload
	// left over folds in the same way.
smerge6:
	FOLD3(X0, X1, X2, X9, X6, X3, X4, X5)
	TESTQ  CX, CX
	JZ     smerge3
	LOAD3(SI, 0, X11, X12, X13)
	MOVL   R10, 0(DI)
	MOVB   R11, 4(DI)
	STORE3(X11, X12, X13, DI, 5)
	SWAP3(X8, X11, X12, X13)
	FOLD3(X0, X1, X2, X9, X6, X11, X12, X13)
	ADDQ   $53, DI

	// Three accumulators become one, 128 bits apart, and move on by 128
	// bits for the closing cell's first block.
smerge3:
	FOLD(X0, X10, X6, X1)
	FOLD(X0, X10, X6, X2)
	SHIFT(X0, X10, X6)
	MOVO   X0, X15

sclose:
	MOVOU  5(DI), X0
	MOVOU  21(DI), X1
	PSHUFB X8, X0
	PSHUFB X8, X1
	PXOR   X15, X0
	FOLD(X0, X10, X6, X1)
	CMPB   last+72(FP), $0
	JNE    sseal
	MOVOU  37(DI), X2
	PSHUFB X8, X2
	FOLD(X0, X10, X6, X2)
	SHIFT(X0, X10, X6)
	MOVOU  X0, 0(R8)
	MOVL   R10, 0(DI)
	MOVB   R11, 4(DI)
	RET

	// Payload octets 32-43 are the 16 at 28 with the first four, already
	// folded, cleared: a 96-bit block.
sseal:
	MOVOU  33(DI), X2
	PSHUFB X8, X2
	PSLLDQ $4, X2
	PSRLDQ $4, X2
	MOVOU  ·foldK+64(SB), X3 // x^96, x^160 mod P
	FOLD(X0, X3, X6, X2)
	MOVOU  ·foldK+80(SB), X12 // x^64, x^96 mod P
	MOVOU  ·foldK+96(SB), X13 // μ, P
	REDUCE(X0, X12, X13, X11, X14)
	MOVQ   X14, AX
	NOTL   AX
	BSWAPL AX
	MOVL   AX, 49(DI)
	MOVL   5(R9), R10
	MOVB   9(R9), R11
	MOVL   R10, 0(DI)
	MOVB   R11, 4(DI)
	RET

// RUN jumps to miss unless the cell at off(P) carries the header whose
// first four octets are in W and fifth in B.
#define RUN(P, off, W, B, miss) \
	CMPL 0+off(P), W;  \
	JNE  miss;         \
	CMPB 4+off(P), B;  \
	JNE  miss

// func foldReassemble(acc *crcAcc, dst, src []byte, n int, h *cellHeaders) (k int, crc uint32, eof bool)
//
// src holds n cells and dst room for n payloads (reassembleCells checks).
// It takes cells from the front of src while each carries h's first header,
// moving each payload into dst as foldSegment moves one into a cell and
// folding it the same way, six accumulators two payloads apart; the header
// of each pair is compared before either payload is loaded. Among the n, the
// cell that stops the run may carry h's second header: then it is the
// frame's end, and it moves and folds whole, CRC field included, and the
// accumulator reduces once. k counts the cells taken. With eof, crc is the
// register over the whole frame, which the AAL5 residue checks; otherwise
// the accumulator is stored for the next call.
TEXT ·foldReassemble(SB), NOSPLIT, $0-85
	MOVQ  acc+0(FP), R8
	MOVQ  dst_base+8(FP), DI
	MOVQ  src_base+32(FP), SI
	MOVQ  n+56(FP), CX
	MOVQ  CX, DX
	MOVQ  h+64(FP), R9
	MOVL  0(R9), R10
	MOVB  4(R9), R11
	MOVL  5(R9), R12
	MOVB  9(R9), R13
	MOVOU bswapMask<>(SB), X8
	MOVOU ·foldK+16(SB), X10 // x^128, x^192 mod P
	MOVOU ·foldK+32(SB), X9  // x^384, x^448 mod P
	MOVOU ·foldK+48(SB), X7  // x^768, x^832 mod P
	MOVOU 0(R8), X15
	TESTQ CX, CX
	JZ    rkeep
	RUN(SI, 0, R10, R11, rend)

	// The first payload seeds three accumulators, the carried one XORed
	// into the first.
	LOAD3(SI, 5, X0, X1, X2)
	STORE3(X0, X1, X2, DI, 0)
	SWAP3(X8, X0, X1, X2)
	PXOR   X15, X0
	ADDQ   $53, SI
	ADDQ   $48, DI
	DECQ   CX
	JZ     rmerge3
	RUN(SI, 0, R10, R11, rmerge3)

	// A second payload seeds three more.
	LOAD3(SI, 5, X3, X4, X5)
	STORE3(X3, X4, X5, DI, 0)
	SWAP3(X8, X3, X4, X5)
	ADDQ   $53, SI
	ADDQ   $48, DI
	DECQ   CX

rloop2:
	CMPQ   CX, $2
	JB     rlast
	RUN(SI, 0, R10, R11, rmerge6)
	RUN(SI, 53, R10, R11, rodd)
	LOAD3(SI, 5, X11, X12, X13)
	STORE3(X11, X12, X13, DI, 0)
	SWAP3(X8, X11, X12, X13)
	FOLD3(X0, X1, X2, X7, X6, X11, X12, X13)
	LOAD3(SI, 58, X11, X12, X13)
	STORE3(X11, X12, X13, DI, 48)
	SWAP3(X8, X11, X12, X13)
	FOLD3(X3, X4, X5, X7, X6, X11, X12, X13)
	ADDQ   $106, SI
	ADDQ   $96, DI
	SUBQ   $2, CX
	JMP    rloop2

	// One cell left in the bound: an odd payload if it continues the run.
rlast:
	TESTQ  CX, CX
	JZ     rmerge6
	RUN(SI, 0, R10, R11, rmerge6)

	// Six accumulators become three, one payload apart, and one more
	// payload folds in the same way.
rodd:
	FOLD3(X0, X1, X2, X9, X6, X3, X4, X5)
	LOAD3(SI, 5, X11, X12, X13)
	STORE3(X11, X12, X13, DI, 0)
	SWAP3(X8, X11, X12, X13)
	FOLD3(X0, X1, X2, X9, X6, X11, X12, X13)
	ADDQ   $53, SI
	ADDQ   $48, DI
	DECQ   CX
	JMP    rmerge3

	// Six accumulators become three, one payload apart.
rmerge6:
	FOLD3(X0, X1, X2, X9, X6, X3, X4, X5)

	// Three accumulators become one, 128 bits apart, and move on by 128
	// bits for the next block.
rmerge3:
	FOLD(X0, X10, X6, X1)
	FOLD(X0, X10, X6, X2)
	SHIFT(X0, X10, X6)
	MOVO   X0, X15

	// The cell that stopped the run ends the frame if it carries the
	// second header.
rend:
	TESTQ  CX, CX
	JZ     rkeep
	RUN(SI, 0, R12, R13, rkeep)
	LOAD3(SI, 5, X0, X1, X2)
	STORE3(X0, X1, X2, DI, 0)
	SWAP3(X8, X0, X1, X2)
	PXOR   X15, X0
	FOLD(X0, X10, X6, X1)
	FOLD(X0, X10, X6, X2)
	MOVOU  ·foldK+80(SB), X12 // x^64, x^96 mod P
	MOVOU  ·foldK+96(SB), X13 // μ, P
	REDUCE(X0, X12, X13, X11, X14)
	MOVQ   X14, AX
	MOVL   AX, crc+80(FP)
	DECQ   CX
	SUBQ   CX, DX
	MOVQ   DX, k+72(FP)
	MOVB   $1, eof+84(FP)
	RET

rkeep:
	MOVOU  X15, 0(R8)
	SUBQ   CX, DX
	MOVQ   DX, k+72(FP)
	MOVL   $0, crc+80(FP)
	MOVB   $0, eof+84(FP)
	RET
