package atm

import (
	"encoding/binary"
	"hash/crc32"
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/budget"
)

// The AAL5 CRC-32 uses the IEEE 802.3 generator P but shifts message bits
// in MSB-first. With M a run of n octets read as a polynomial, first bit
// highest, crcUpdate's raw register update is
//
//	U(c, M) = (c·x^(8n) + M·x^32) mod P
//
// — no preset, no complement, splittable anywhere. Three kernels compute
// it: on amd64 the fold, elsewhere crcUpdate's choice by GOARCH and run
// length between the reflected kernel and the table loop.
//
// On amd64 a run folds with carry-less multiplication in natural bit order
// (crc_amd64.s; Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction", Intel, 2009). PSHUFB
// loads each 16-octet block big-endian, so its first bit is x^127, and c
// enters as bits 96-127 of the first block: c·x^(8n) is c·x^(8n-32) times
// the x^32 every message bit gets. A 128-bit remainder A = H·x^64 + L moves
// k bits on as H·(x^(k+64) mod P) ⊕ L·(x^k mod P), two PCLMULQDQs whose
// products are at most 95 bits wide, so the MSB-first form needs no
// shift-by-one fix-up. Four accumulators move 512 bits per step (x^512,
// x^576), then merge, and the blocks left over fold in 128 bits at a time
// (x^128, x^192); foldK holds these constants, derived from aal5Poly at
// start-up. The kernel ends with a remainder V, and one Barrett step
// reduces it to U(0, V) = V·x^32 mod P: V·x^32 is H·(x^96 mod P) ⊕ L·x^32
// once H folds, at most 96 bits; its top 32 bits fold by x^64 to leave S,
// at most 64 bits; and S mod P is S ⊕ floor(S / P)·P with floor(S / P) =
// floor(floor(S / x^32)·μ / x^32) for μ = floor(x^64 / P), four
// PCLMULQDQs in all. PCLMULQDQ and SSSE3 are not in the amd64 baseline, so
// a CPUID probe (leaf 1, ECX bits 1 and 9) sets hasFold once; without them
// the portable path runs, every run on the table loop, which the reflected
// path below only ran level with there.
//
// On a 2-vCPU Xeon host under Go 1.24, an 8 KB run folds in 0.36-0.56 µs
// and 1 KB in 58-79 ns, against 4.6-6.2 µs and 0.63-0.79 µs on the table
// loop. The reflected path with a PSHUFB mirror took 0.9-1.4 µs per 8 KB on
// the same host. hash/crc32's kernel alone, mirror aside, read 8 KB in
// 0.49-0.52 µs in an hour when the fold read 0.42-0.52: the fold runs at
// the hardware's pace and reads each octet once.
//
// Elsewhere the long-run kernel is the standard library's. hash/crc32
// implements the reflected (LSB-first) form — the one arm64, ppc64le and
// s390x accelerate — and the two are the same register seen in a mirror.
// With rev32 reversing the bits of a word, rev8 reversing the bits inside
// every octet of a run and U_lsb the raw reflected update:
//
//	U(c, D) = rev32(U_lsb(rev32(c), rev8(D)))
//
// crc32.Update(x, IEEE, s) is ^U_lsb(^x, s) — it applies a complement on the
// way in and on the way out — so crcReflected advances a long run as
//
//	r := ^rev32(crc)
//	for each block of D: r = crc32.Update(r, crc32.IEEETable, rev8(block))
//	crc = rev32(^r)
//
// with reflect8, portable Go (one RBIT per word on arm64), as the mirror
// pass. A short run loses to the table loop on its fixed costs (pool round
// trip, two calls, hash/crc32's own alignment head and tail), so reflectMin
// sits between them. Where hash/crc32 has no architecture kernel for the
// IEEE polynomial it falls back to its own slicing-by-8, and the reflected
// path is then pure overhead: ieeeKernel names the GOARCHes where the pinned
// Go 1.21 standard library ships one, and everywhere else every run stays on
// the table loop. crcReflected is portable, so the tests hold it to the
// definition on amd64 too.
//
// The shipped cell loops, AppendCellRuns and PushWire's run, make no
// separate CRC pass over the payloads they move, and take a frame in one
// kernel pass per side. On amd64 with the fold, segmentCells' kernel
// (foldSegment) moves a batch of payloads from a contiguous run into
// 53-octet cells and stores each cell's header beside it, and
// reassembleCells' kernel (foldReassemble) compares each cell's header
// and moves its payload into the frame buffer; both fold each 16-octet
// block as it passes, six accumulators two payloads apart (x^768, x^832),
// merged to three one payload apart (x^384, x^448) and to one 128 bits
// apart (x^128, x^192). Between calls a frame's CRC is carried as the
// 128-bit accumulator (crcAcc), so only the frame's end reduces. The send
// side folds the last cell up to its CRC field: two blocks, then the
// 12-octet tail as one block shifted by x^96 (x^96, x^160), then the
// reduction, and stores the complemented register in the field. The
// receive side folds the end-of-frame cell whole, CRC field included, and
// compares the register to the AAL5 residue (aal5Residue). So every
// payload octet is read once on each side of the link and none goes
// through the table loop. Elsewhere, and on amd64 without PCLMULQDQ, the
// portable path moves the payloads and then makes one crcUpdate over the
// contiguous side of the move — the run on send, the reassembly buffer on
// receive — so a long batch still reaches hash/crc32's kernel where the
// GOARCH has one: 48 octets at a time it would never leave the table loop.

// aal5Poly is the AAL5 CRC-32 generator (I.363.5), processed MSB-first.
const aal5Poly = 0x04C11DB7

// ieeeKernel reports whether hash/crc32 has an architecture kernel for
// crc32.IEEETable on a GOARCH without the fold (crc32_arm64.go, _ppc64le,
// _s390x).
const ieeeKernel = runtime.GOARCH == "arm64" || runtime.GOARCH == "ppc64le" ||
	runtime.GOARCH == "s390x"

// reflectMin is the shortest run crcUpdate sends through the reflected
// kernel. It was set on amd64 with a PSHUFB mirror, table vs reflected, ns
// per run: 48 B 32 vs 77, 64 B 35 vs 35, 96 B 52 vs 36, 128 B 77 vs 46,
// 256 B 156 vs 53. The kernels crossed near 64-80 B, and 128 leaves the
// margin a host's drift needs. No GOARCH that takes the reflected path has
// been measured since; BenchmarkAAL5CRC is the instrument.
const reflectMin = 128

// reflectBlock is the scratch one hash/crc32 call consumes: it stays in L1
// beside the payload it mirrors, and at 2 KB the fixed cost of the call is
// under 1 % of the block's time.
const reflectBlock = 2048

// aal5Tables drive the AAL5 CRC-32 eight octets at a time (slicing-by-8).
// aal5Tables[0] is the classic one-octet table; aal5Tables[k][b] is the CRC
// state after octet b followed by k zero octets, so eight lookups — one per
// table — advance the register over eight message octets at once.
var aal5Tables [8][256]uint32

func init() {
	for i := range aal5Tables[0] {
		crc := uint32(i) << 24
		for b := 0; b < 8; b++ {
			if crc&0x80000000 != 0 {
				crc = crc<<1 ^ aal5Poly
			} else {
				crc <<= 1
			}
		}
		aal5Tables[0][i] = crc
	}
	for k := 1; k < len(aal5Tables); k++ {
		for i, prev := range aal5Tables[k-1] {
			aal5Tables[k][i] = prev<<8 ^ aal5Tables[0][prev>>24]
		}
	}
}

// crcUpdate advances the raw AAL5 CRC-32 register crc over p. It applies
// neither the all-ones preset nor the final complement, so a CRC can be
// streamed over several runs (payload, pad, trailer) without materializing
// them contiguously. It is the portable path's kernel: the fold path never
// calls it.
func crcUpdate(crc uint32, p []byte) uint32 {
	if ieeeKernel && len(p) >= reflectMin {
		return crcReflected(crc, p)
	}
	return crcTable(crc, p)
}

// crcTable is the slicing-by-8 kernel: the portable path's short runs and
// the reflected kernel's tails, and every run on a GOARCH with neither the
// fold nor ieeeKernel.
func crcTable(crc uint32, p []byte) uint32 {
	budget.Add(budget.TableOctets, len(p))
	t := &aal5Tables
	for len(p) >= 8 {
		a := crc ^ binary.BigEndian.Uint32(p)
		b := binary.BigEndian.Uint32(p[4:])
		// Only the first word's lookups wait on the previous iteration;
		// pairing the XORs keeps that dependent chain two deep.
		crc = (t[7][a>>24] ^ t[6][a>>16&0xFF]) ^ (t[5][a>>8&0xFF] ^ t[4][a&0xFF]) ^
			((t[3][b>>24] ^ t[2][b>>16&0xFF]) ^ (t[1][b>>8&0xFF] ^ t[0][b&0xFF]))
		p = p[8:]
	}
	for _, b := range p {
		crc = crc<<8 ^ t[0][byte(crc>>24)^b]
	}
	return crc
}

// reflectScratch recycles the mirror blocks. The block cannot be a local:
// hash/crc32 dispatches through a function variable, so its argument
// escapes, and a heap block per call would put the allocator back on the
// datapath (TestSARZeroAllocs).
var reflectScratch = sync.Pool{New: func() any { return new([reflectBlock]byte) }}

// crcReflected is the hash/crc32 kernel (identity in the file comment): p's
// whole 8-octet words go through the mirror a block at a time, the last few
// octets through the table loop.
func crcReflected(crc uint32, p []byte) uint32 {
	s := reflectScratch.Get().(*[reflectBlock]byte)
	r := ^bits.Reverse32(crc)
	for len(p) >= 8 {
		n := len(p) &^ 7
		if n > reflectBlock {
			n = reflectBlock
		}
		reflect8(s[:n], p[:n])
		r = crc32.Update(r, crc32.IEEETable, s[:n])
		p = p[n:]
	}
	reflectScratch.Put(s)
	return crcTable(bits.Reverse32(^r), p)
}

// reflect8 writes src to dst with the bits of every octet reversed, a whole
// 8-octet word at a time; octets past the last whole word are left alone. It
// is crcReflected's mirror pass. A big-endian load, a 64-bit
// reversal and a little-endian store is the portable spelling of that, and
// one RBIT on arm64. How the loop is spelled matters as much as what it
// computes: on amd64, where the reversal is three mask-shift steps whose
// 64-bit masks the compiler re-materializes per word, one word per iteration
// read 2.9 GB/s, two 3.6 and four 4.3.
func reflect8(dst, src []byte) {
	for len(src) >= 32 && len(dst) >= 32 {
		binary.LittleEndian.PutUint64(dst, bits.Reverse64(binary.BigEndian.Uint64(src)))
		binary.LittleEndian.PutUint64(dst[8:], bits.Reverse64(binary.BigEndian.Uint64(src[8:])))
		binary.LittleEndian.PutUint64(dst[16:], bits.Reverse64(binary.BigEndian.Uint64(src[16:])))
		binary.LittleEndian.PutUint64(dst[24:], bits.Reverse64(binary.BigEndian.Uint64(src[24:])))
		dst, src = dst[32:], src[32:]
	}
	for len(src) >= 8 && len(dst) >= 8 {
		binary.LittleEndian.PutUint64(dst, bits.Reverse64(binary.BigEndian.Uint64(src)))
		dst, src = dst[8:], src[8:]
	}
}

// crcAcc is a frame's CRC as the cell loops carry it from one call to the
// next. On the fold path it is a 128-bit accumulator W = hi·x^64 + lo,
// congruent modulo P to M·x^128 for M the message so far with the raw
// register's preset as its first 32 bits: the value the next block XORs
// into (file comment), so a fresh register c is c·x^96 and no call finishes
// a remainder until the frame's last. Elsewhere lo holds the raw register.
// The layout is the kernels': lo first.
type crcAcc struct{ lo, hi uint64 }

// accOf returns the accumulator whose raw register is crc.
func accOf(crc uint32) crcAcc {
	if hasFold {
		return crcAcc{hi: uint64(crc) << 32}
	}
	return crcAcc{lo: uint64(crc)}
}

// aal5Residue is the raw register left by a valid frame folded whole, its
// complemented CRC field included, from the all-ones preset: the AAL5
// CRC-32 residue, so the receive side checks a frame without setting its
// CRC field apart.
const aal5Residue = 0xC704DD7B

// cellHeaders are one VC's two wire headers: [0] for the cells inside a
// frame, [1] for its end-of-frame cell, indexed by the PT bit that tells
// them apart. The send side stores them, the receive side compares cells
// to them.
type cellHeaders [2][HeaderSize]byte

// segmentCells lays n payloads from src, back to back, into the cells at
// dst with h[0], then closes the call with the cell after them, whose
// payload fill has already laid: unless last it takes h[0]; if last it is
// the frame's end, whose CRC field receives the complemented register over
// the frame and whose header is h[1]. acc advances over every payload
// octet; after a last cell it is spent. With the fold it is one kernel
// pass; elsewhere the payloads move and one crcUpdate follows over src.
func segmentCells(acc *crcAcc, dst, src []byte, n int, h *cellHeaders, last bool) {
	dst, src = dst[:(n+1)*CellSize], src[:n*PayloadSize]
	budget.Add(budget.SendCopied, n*PayloadSize)
	if hasFold {
		foldSegment(acc, dst, src, n, h, last)
		return
	}
	for i := 0; i < n; i++ {
		c := dst[i*CellSize : (i+1)*CellSize]
		*(*[HeaderSize]byte)(c) = h[0]
		copyPayload(c[HeaderSize:], src[i*PayloadSize:])
	}
	crc := crcUpdate(uint32(acc.lo), src)
	c := dst[n*CellSize:]
	if !last {
		*(*[HeaderSize]byte)(c) = h[0]
		acc.lo = uint64(crcUpdate(crc, c[HeaderSize:]))
		return
	}
	*(*[HeaderSize]byte)(c) = h[1]
	crc = crcUpdate(crc, c[HeaderSize:CellSize-4])
	binary.BigEndian.PutUint32(c[CellSize-4:], ^crc)
}

// reassembleCells takes the cells at the front of src, at most n, that
// carry h[0], moving their payloads back to back into dst, and then the
// one that stops them if it carries h[1], the frame's end; it returns how
// many it took. acc advances over every payload octet; with eof, crc is
// the raw register over the whole frame, CRC field included, and acc is
// spent. With the fold it is one kernel pass, header compares included;
// elsewhere the headers are compared a 4-octet word and an octet at a
// time, the payloads move and one crcUpdate follows over dst.
func reassembleCells(acc *crcAcc, dst, src []byte, n int, h *cellHeaders) (k int, crc uint32, eof bool) {
	dst, src = dst[:n*PayloadSize], src[:n*CellSize]
	if hasFold {
		k, crc, eof = foldReassemble(acc, dst, src, n, h)
		budget.Add(budget.RecvCopied, k*PayloadSize)
		return k, crc, eof
	}
	w, b := [4]byte(h[0][:]), h[0][4]
	for ; k < n; k++ {
		c := src[k*CellSize:]
		if [4]byte(c) != w || c[4] != b {
			break
		}
	}
	if k < n && [HeaderSize]byte(src[k*CellSize:]) == h[1] {
		k, eof = k+1, true
	}
	for i := 0; i < k; i++ {
		copyPayload(dst[i*PayloadSize:], src[i*CellSize+HeaderSize:])
	}
	budget.Add(budget.RecvCopied, k*PayloadSize)
	crc = crcUpdate(uint32(acc.lo), dst[:k*PayloadSize])
	acc.lo = uint64(crc)
	return k, crc, eof
}

// foldRun advances acc over p, whole cell payloads already in place, and
// returns the raw register over the message so far. p must not be empty.
func foldRun(acc *crcAcc, p []byte) uint32 {
	if hasFold {
		return foldBlocks(acc, p)
	}
	crc := crcUpdate(uint32(acc.lo), p)
	acc.lo = uint64(crc)
	return crc
}
