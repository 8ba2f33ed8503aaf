#include "textflag.h"

// revNibbleLo[i] is the 4-bit mirror of i placed in a high nibble: where a
// low nibble goes once its octet is reversed. revNibbleHi[i] is the same
// mirror in a low nibble, for the high nibble shifted down.
DATA revNibbleLo<>+0(SB)/8, $0xE060A020C0408000
DATA revNibbleLo<>+8(SB)/8, $0xF070B030D0509010
GLOBL revNibbleLo<>(SB), RODATA|NOPTR, $16

DATA revNibbleHi<>+0(SB)/8, $0x0E060A020C040800
DATA revNibbleHi<>+8(SB)/8, $0x0F070B030D050901
GLOBL revNibbleHi<>(SB), RODATA|NOPTR, $16

DATA lowNibbles<>+0(SB)/8, $0x0F0F0F0F0F0F0F0F
DATA lowNibbles<>+8(SB)/8, $0x0F0F0F0F0F0F0F0F
GLOBL lowNibbles<>(SB), RODATA|NOPTR, $16

// func reflect16(dst, src []byte)
TEXT ·reflect16(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	SHRQ $4, CX
	JZ   done
	MOVOU lowNibbles<>(SB), X7
	MOVOU revNibbleLo<>(SB), X6
	MOVOU revNibbleHi<>(SB), X5

loop:
	MOVOU  (SI), X0
	MOVO   X0, X1
	PSRLW  $4, X1
	PAND   X7, X0
	PAND   X7, X1
	MOVO   X6, X2
	PSHUFB X0, X2
	MOVO   X5, X3
	PSHUFB X1, X3
	POR    X3, X2
	MOVOU  X2, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	DECQ   CX
	JNZ    loop

done:
	RET

// func ssse3() bool
TEXT ·ssse3(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	SHRL  $9, CX
	ANDL  $1, CX
	MOVB  CX, ret+0(FP)
	RET
