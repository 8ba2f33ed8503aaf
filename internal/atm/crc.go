package atm

import (
	"encoding/binary"
	"hash/crc32"
	"math/bits"
	"runtime"
	"sync"
)

// The AAL5 CRC-32 uses the IEEE 802.3 generator but shifts message bits in
// MSB-first, where hash/crc32 implements the reflected (LSB-first) form — the
// one the CPU's carry-less-multiply and CRC instructions accelerate. The two
// are the same register seen in a mirror. With rev32 reversing the bits of a
// word, rev8 reversing the bits inside every octet of a run, U_msb the raw
// MSB-first register update (crcTable below) and U_lsb the raw reflected one:
//
//	U_msb(c, D) = rev32(U_lsb(rev32(c), rev8(D)))
//
// crc32.Update(x, IEEE, s) is ^U_lsb(^x, s) — it applies a complement on the
// way in and on the way out — so a long run is advanced as
//
//	r := ^rev32(crc)
//	for each block of D: r = crc32.Update(r, crc32.IEEETable, rev8(block))
//	crc = rev32(^r)
//
// which keeps crcUpdate's contract: raw register in, raw register out, no
// preset, no complement, splittable anywhere. The CRC kernel is the standard
// library's; the mirror pass (rev8) is this package's, one kernel per
// GOARCH behind mirror. On amd64 it is reflect16 (reflect_amd64.s): 16
// octets per step, each octet's two nibbles looked up in a table of
// mirrored nibbles with SSSE3's PSHUFB. SSSE3 is not in the amd64 baseline,
// so a CPUID probe (leaf 1, ECX bit 9) sets hasSSSE3 once at start-up, and
// without it reflect8 runs. Everywhere else reflect8, portable Go, is the
// kernel (one RBIT per word on arm64).
//
// The mirror pass is still the larger part of the reflected kernel's time.
// On a 2-vCPU Xeon host under Go 1.24, a 2 KB block mirrors in 130-230 ns
// with PSHUFB against 510-900 with reflect8 (9-16 against 2.3-4 GB/s), and
// an 8 KB run takes 0.9-1.4 µs through the reflected kernel against 2.7-3.9
// with reflect8 as its mirror; the table loop reads 1.6 GB/s there,
// hash/crc32 alone 18-20. An SSE2-only kernel (three mask-and-shift swaps,
// no CPUID needed) read 230-290 ns per block and 1.4-1.9 µs per 8 KB run:
// the probe pays for itself. A short run loses to the table loop on its
// fixed costs (pool round trip, two calls, hash/crc32's own alignment head
// and tail). So there are two kernels behind crcUpdate and one measured
// constant between them, reflectMin.
//
// Where hash/crc32 has no architecture kernel for the IEEE polynomial it
// falls back to its own slicing-by-8, and the reflected path is then pure
// overhead. ieeeKernel therefore names the GOARCHes where the pinned Go 1.21
// standard library ships one; everywhere else every run stays on the table
// loop. With the hardware kernel switched off on amd64
// (GODEBUG=cpu.pclmulqdq=off) the reflected path with the PSHUFB mirror runs
// level with the table loop (8 KB: 4.9-5.2 µs against 4.8-5.0; with
// reflect8 as the mirror it read 6.4-7.6). An amd64 without PCLMULQDQ or an
// arm64 without the CRC32 extension — neither has been made this decade —
// would pay that.

// aal5Poly is the AAL5 CRC-32 generator (I.363.5), processed MSB-first.
const aal5Poly = 0x04C11DB7

// ieeeKernel reports whether hash/crc32 has an architecture kernel for
// crc32.IEEETable on this GOARCH (crc32_amd64.go, _arm64, _ppc64le, _s390x).
const ieeeKernel = runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64" ||
	runtime.GOARCH == "ppc64le" || runtime.GOARCH == "s390x"

// reflectMin is the shortest run crcUpdate sends through the reflected
// kernel. BenchmarkAAL5CRC (crc_test.go) is its instrument; the host in the
// file comment, PSHUFB mirror, table vs reflected, ns per run: 48 B 32 vs 77,
// 64 B 35 vs 35, 96 B 52 vs 36, 128 B 77 vs 46, 256 B 156 vs 53, 1 KB 626 vs
// 175, 8 KB 5100 vs 1120. The kernels cross near 64-80 B; 128 leaves the
// margin the host's drift needs. A cell payload, an AAL5 trailer and a
// message header are below it; every chunk of a bulk message is far above.
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
// them contiguously; aal5crc32 is the one-shot form.
func crcUpdate(crc uint32, p []byte) uint32 {
	if ieeeKernel && len(p) >= reflectMin {
		return crcReflected(crc, p)
	}
	return crcTable(crc, p)
}

// crcTable is the slicing-by-8 kernel: every short run, every tail, and
// every run on a GOARCH without ieeeKernel.
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
		mirror(s[:n], p[:n])
		r = crc32.Update(r, crc32.IEEETable, s[:n])
		p = p[n:]
	}
	reflectScratch.Put(s)
	return crcTable(bits.Reverse32(^r), p)
}

// reflect8 writes src to dst with the bits of every octet reversed, a whole
// 8-octet word at a time; octets past the last whole word are left alone. It
// is the portable mirror kernel — the only one off amd64, the tail of a
// block and the fallback without SSSE3 on it — and the reference
// TestReflectKernelsAgree holds reflect16 to. A big-endian load, a 64-bit
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

// aal5crc32 computes the AAL5 CRC-32 (generator 0x04C11DB7, init all-ones,
// final complement) over p.
func aal5crc32(p []byte) uint32 {
	return ^crcUpdate(^uint32(0), p)
}
