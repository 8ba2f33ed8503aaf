package atm

// hasFold gates the fold kernels: PCLMULQDQ and SSSE3's PSHUFB are not in
// the amd64 baseline (GOAMD64=v1). Set once, from CPUID leaf 1 (ECX bits 1
// and 9); without them every run takes the portable path. It is a
// variable so that the tests and BenchmarkAAL5Paths can clear it for
// their duration and run the portable path on this host.
var hasFold = clmul()

// foldK holds the fold kernels' constants, each pair low half first as
// the kernels load it: x^n mod P for foldBlocks' 512-bit fold (x^512,
// x^576), the 128-bit fold every kernel merges with (x^128, x^192), the
// cell kernels' one-payload and two-payload folds (x^384, x^448; x^768,
// x^832) and the 96-bit fold of a last cell's 12-octet tail (x^96, x^160);
// then the Barrett reduction's (x^64, x^96) mod P, and μ = floor(x^64 / P)
// beside P itself. All are derived from aal5Poly at start-up.
var foldK = [14]uint64{
	xnModP(512), xnModP(576), xnModP(128), xnModP(192),
	xnModP(384), xnModP(448), xnModP(768), xnModP(832),
	xnModP(96), xnModP(160),
	xnModP(64), xnModP(96),
	barrettMu(), 1<<32 | aal5Poly,
}

// xnModP is x^n modulo the AAL5 generator: the register 1 (x^0) shifted n
// times through it.
func xnModP(n int) uint64 {
	r := uint32(1)
	for ; n > 0; n-- {
		if r&0x80000000 != 0 {
			r = r<<1 ^ aal5Poly
		} else {
			r <<= 1
		}
	}
	return uint64(r)
}

// barrettMu is floor(x^64 / P), a 33-bit quotient, by long division: each
// step that finds x^(32+i) in the remainder sets bit i of the quotient and
// subtracts P·x^i.
func barrettMu() uint64 {
	const p = 1<<32 | aal5Poly
	var q uint64
	rem := [2]uint64{0, 1} // x^64 as (low, high) words
	for i := 32; i >= 0; i-- {
		// Coefficient of x^(32+i) in rem.
		bit := 32 + i
		if rem[bit/64]>>(bit%64)&1 == 0 {
			continue
		}
		q |= 1 << i
		rem[0] ^= p << i
		if i > 31 {
			rem[1] ^= p >> (64 - i)
		}
	}
	return q
}

// foldBlocks (crc_amd64.s) folds p, a whole number of 16-octet blocks and
// at least one, onto acc, stores the accumulator the next call continues
// from and returns the raw register over the message so far.
//
//go:noescape
func foldBlocks(acc *crcAcc, p []byte) uint32

// foldSegment (crc_amd64.s) is segmentCells' kernel: n payloads move from
// src into the cells of dst with h's first header and fold onto acc, and
// the cell after them closes the call — a cell in place, or the frame's end
// with its CRC field and h's second header.
//
//go:noescape
func foldSegment(acc *crcAcc, dst, src []byte, n int, h *cellHeaders, last bool)

// foldReassemble (crc_amd64.s) is reassembleCells' kernel: it takes the
// cells at the front of src, up to n, that carry h's first header, and the
// end-of-frame cell that may follow them, moving the payloads into dst and
// folding them onto acc; at the frame's end it returns the register.
//
//go:noescape
func foldReassemble(acc *crcAcc, dst, src []byte, n int, h *cellHeaders) (k int, crc uint32, eof bool)

// clmul reports whether the CPU has PCLMULQDQ and SSSE3.
func clmul() bool
