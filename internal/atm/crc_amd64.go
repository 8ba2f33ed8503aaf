package atm

import "encoding/binary"

// hasFold gates the fold kernel: PCLMULQDQ and SSSE3's PSHUFB are not in
// the amd64 baseline (GOAMD64=v1). Set once, from CPUID leaf 1 (ECX bits 1
// and 9); without them every run takes the table loop.
var hasFold = clmul()

// foldMin is the shortest run crcUpdate sends through the fold kernel, and
// the kernel's floor: it always loads four blocks. BenchmarkAAL5CRC
// (crc_test.go) is its instrument; the host in crc.go's file comment, table
// vs fold, ns per run: 64 B 36-49 vs 24-27, 96 B 55-76 vs 28-31, 128 B
// 89-104 vs 29-32, 256 B 153-192 vs 28-38, 1 KB 629-785 vs 58-79, 8 KB
// 4600-6200 vs 360-500. The fold wins by a third at its floor and the gap
// only widens, so nothing is gained by a higher threshold. A cell payload
// and an AAL5 trailer stay on the table loop.
const foldMin = 64

// foldK holds the fold kernel's constants, x^n mod P for the generator P:
// the 512-bit fold's pair (x^512, x^576) and the 128-bit fold's (x^128,
// x^192), each pair low half first as the kernel loads it.
var foldK = [4]uint64{xnModP(512), xnModP(576), xnModP(128), xnModP(192)}

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

// foldBlocks (crc_amd64.s) folds p, a whole number of 16-octet blocks and at
// least four of them, with the raw register crc as its first 32 bits, into
// a 128-bit remainder hi·x^64 + lo congruent to the message modulo P.
//
//go:noescape
func foldBlocks(crc uint32, p []byte) (hi, lo uint64)

// clmul reports whether the CPU has PCLMULQDQ and SSSE3.
func clmul() bool

// crcFold is the fold kernel (math in crc.go's file comment): p's whole
// 16-octet blocks fold to a 128-bit remainder, and the table loop finishes
// that remainder and the last few octets. A run shorter than the kernel's
// four blocks stays on the table loop, so any p is safe here.
func crcFold(crc uint32, p []byte) uint32 {
	if len(p) < 64 {
		return crcTable(crc, p)
	}
	n := len(p) &^ 15
	hi, lo := foldBlocks(crc, p[:n])
	var r [16]byte
	binary.BigEndian.PutUint64(r[:], hi)
	binary.BigEndian.PutUint64(r[8:], lo)
	return crcTable(crcTable(0, r[:]), p[n:])
}
