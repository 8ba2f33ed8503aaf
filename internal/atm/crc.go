package atm

import (
	"encoding/binary"
	"hash/crc32"
	"math/bits"
	"runtime"
	"sync"
)

// The AAL5 CRC-32 uses the IEEE 802.3 generator P but shifts message bits
// in MSB-first. With M a run of n octets read as a polynomial, first bit
// highest, crcUpdate's raw register update is
//
//	U(c, M) = (c·x^(8n) + M·x^32) mod P
//
// — no preset, no complement, splittable anywhere. Three kernels compute
// it, chosen by GOARCH and run length.
//
// On amd64 a long run folds with carry-less multiplication in natural bit
// order (crcFold, crc_amd64.s; Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009). PSHUFB
// loads each 16-octet block big-endian, so its first bit is x^127, and c
// enters as bits 96-127 of the first block: c·x^(8n) is c·x^(8n-32) times
// the x^32 every message bit gets. A 128-bit remainder A = H·x^64 + L moves
// k bits on as H·(x^(k+64) mod P) ⊕ L·(x^k mod P), two PCLMULQDQs whose
// products are at most 95 bits wide, so the MSB-first form needs no
// shift-by-one fix-up. Four accumulators move 512 bits per step (x^512,
// x^576), then merge, and the blocks left over fold in 128 bits at a time
// (x^128, x^192); foldK holds these constants, derived from aal5Poly at
// start-up. The kernel returns the remainder V, and the table loop
// finishes U(0, V) = V·x^32 mod P and the run's last few octets: 16 octets
// of table loop in place of a Barrett step. PCLMULQDQ and SSSE3 are not in
// the amd64 baseline, so a CPUID probe (leaf 1, ECX bits 1 and 9) sets
// hasFold once; without them every run takes the table loop, which the
// reflected path below only ran level with there.
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
// The shipped cell loops, AppendCellRuns and PushWire's same-header run,
// make no separate CRC pass over the payloads they move. They move a batch
// of cell payloads between a contiguous run and the 53-octet cell stride,
// and crcMoveCells advances the register over the batch in that same move.
// On amd64 with the fold that is one assembly kernel, moveFoldCells: each
// 16-octet block is stored to its destination as loaded and folded as it
// passes, six accumulators two payloads apart (x^768, x^832), merged to
// three one payload apart (x^384, x^448) and to one 128 bits apart (x^128,
// x^192); its remainder finishes on the table loop as crcFold's does, and
// foldK holds all eight constants. So every payload octet is read once on
// each side of the link. Elsewhere, and on amd64 without PCLMULQDQ,
// crcMoveThenUpdate moves the payloads and then makes one crcUpdate over
// the contiguous side of the move — the run on send, the reassembly buffer
// on receive — so a long batch still reaches hash/crc32's kernel where the
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
// them contiguously.
func crcUpdate(crc uint32, p []byte) uint32 {
	if hasFold && len(p) >= foldMin {
		return crcFold(crc, p)
	}
	if ieeeKernel && len(p) >= reflectMin {
		return crcReflected(crc, p)
	}
	return crcTable(crc, p)
}

// crcTable is the slicing-by-8 kernel: every short run, every tail, the
// fold's remainder, and every run on a GOARCH with neither the fold nor
// ieeeKernel.
func crcTable(crc uint32, p []byte) uint32 {
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

// crcMoveCells moves n cell payloads, src[i*srcStep:] to dst[i*dstStep:],
// PayloadSize octets each, and advances the raw register crc over them read
// back to back. One side is contiguous (its step is PayloadSize): the
// send loop moves a run into cells, the receive run moves cells into the
// frame buffer. With the fold it is one pass, each octet read once; without
// it, crcMoveThenUpdate.
func crcMoveCells(crc uint32, dst, src []byte, dstStep, srcStep, n int) uint32 {
	if hasFold {
		return crcMoveFold(crc, dst, src, dstStep, srcStep, n)
	}
	return crcMoveThenUpdate(crc, dst, src, dstStep, srcStep, n)
}

// crcMoveThenUpdate is crcMoveCells in two passes: it moves the payloads,
// then makes one crcUpdate over the contiguous side, so a long run keeps
// the reflected kernel where the GOARCH has one (a 48-octet update per
// payload would hold every run to the table loop). It is portable, so the
// tests hold it to the fold on amd64.
func crcMoveThenUpdate(crc uint32, dst, src []byte, dstStep, srcStep, n int) uint32 {
	for i := 0; i < n; i++ {
		copyPayload(dst[i*dstStep:], src[i*srcStep:])
	}
	if srcStep == PayloadSize {
		return crcUpdate(crc, src[:n*PayloadSize])
	}
	return crcUpdate(crc, dst[:n*PayloadSize])
}

// foldCells advances the raw register crc over p, whole cell payloads that
// are already in place. With the fold it runs the move kernel with p as
// both ends, which reads each octet once as crcFold would and takes a
// single payload too (48 octets are under foldMin); elsewhere it is
// crcUpdate.
func foldCells(crc uint32, p []byte) uint32 {
	if hasFold {
		return crcMoveFold(crc, p, p, PayloadSize, PayloadSize, len(p)/PayloadSize)
	}
	return crcUpdate(crc, p)
}
