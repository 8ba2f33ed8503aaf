package atm

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// crcBitSerial is the AAL5 CRC-32 straight from its definition — one
// message bit at a time through the generator, MSB first, all-ones preset,
// final complement — kept here as the reference crcUpdate is held to.
func crcBitSerial(p []byte) uint32 {
	return ^bitSerialUpdate(^uint32(0), p)
}

// bitSerialUpdate is the reference in crcUpdate's raw-register form.
func bitSerialUpdate(crc uint32, p []byte) uint32 {
	for _, b := range p {
		crc ^= uint32(b) << 24
		for i := 0; i < 8; i++ {
			if crc&0x80000000 != 0 {
				crc = crc<<1 ^ aal5Poly
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// TestCRCMatchesBitSerial: slicing-by-8 equals the bit-serial definition on
// every length around the 8-octet stride (the tail loop, the empty input)
// and on unaligned starts.
func TestCRCMatchesBitSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	buf := make([]byte, 4096+7)
	rng.Read(buf)
	for n := 0; n <= 130; n++ {
		for off := 0; off < 8; off++ {
			p := buf[off : off+n]
			if got, want := aal5crc32(p), crcBitSerial(p); got != want {
				t.Fatalf("len %d off %d: crc %08x, bit-serial %08x", n, off, got, want)
			}
		}
	}
	for _, n := range []int{255, 256, 257, 1000, 4095, 4096} {
		if got, want := aal5crc32(buf[:n]), crcBitSerial(buf[:n]); got != want {
			t.Fatalf("len %d: crc %08x, bit-serial %08x", n, got, want)
		}
	}
}

// TestCRCKernelsAgree calls the kernels directly — the table loop, the
// reflected kernel and, on amd64 with PCLMULQDQ, the fold — and holds each
// to the bit-serial reference: every length through two mirror blocks and
// beyond, the chunk and frame sizes the datapath produces, three starting
// registers (the preset, zero, one taken mid-stream), and every two-call
// split of a run that crosses two mirror blocks: each kernel after itself,
// the table loop after each, and the fold after the table loop. The fold
// also runs from every source offset mod 16 on every length from below its
// floor to 2 KB + 64.
func TestCRCKernelsAgree(t *testing.T) {
	buf := patterned(MaxPDU + 4 + 15)
	kernels := crcKernels()
	table, reflected := kernels[0], kernels[1]
	splits := [][2]crcKernel{{table, table}, {reflected, reflected}, {reflected, table}}
	if hasFold {
		fold := kernels[2]
		splits = append(splits, [2]crcKernel{fold, fold}, [2]crcKernel{fold, table}, [2]crcKernel{table, fold})
	}
	lengths := []int{8184, 8192, MaxPDU + 4}
	for n := 0; n <= 2*reflectBlock+64; n++ {
		lengths = append(lengths, n)
	}
	for _, preset := range []uint32{^uint32(0), 0, crcTable(^uint32(0), []byte("mid-stream"))} {
		ref := prefixes(preset, buf[:MaxPDU+4])
		for _, n := range lengths {
			for _, k := range kernels {
				if got := k.fn(preset, buf[:n]); got != ref[n] {
					t.Fatalf("preset %08x len %d: %s %08x, bit-serial %08x", preset, n, k.name, got, ref[n])
				}
			}
		}
		n := 2*reflectBlock + 9
		for k := 0; k <= n; k++ {
			for _, s := range splits {
				if got := s[1].fn(s[0].fn(preset, buf[:k]), buf[k:n]); got != ref[n] {
					t.Fatalf("preset %08x split %d of %d: %s then %s %08x, bit-serial %08x",
						preset, k, n, s[0].name, s[1].name, got, ref[n])
				}
			}
		}
		if !hasFold {
			continue
		}
		const maxLen = 2048 + 64
		for off := 1; off < 16; off++ {
			ref := prefixes(preset, buf[off:off+maxLen])
			for n := 0; n <= maxLen; n++ {
				if got := crcFold(preset, buf[off:off+n]); got != ref[n] {
					t.Fatalf("preset %08x len %d src+%d: fold %08x, bit-serial %08x", preset, n, off, got, ref[n])
				}
			}
		}
	}
}

// crcKernel is one CRC kernel under test, by name.
type crcKernel struct {
	name string
	fn   func(uint32, []byte) uint32
}

// crcKernels lists the kernels this host runs: the table loop, the reflected
// kernel (portable Go around hash/crc32, so it runs everywhere) and, on amd64
// with PCLMULQDQ, the fold.
func crcKernels() []crcKernel {
	ks := []crcKernel{{"table", crcTable}, {"reflected", crcReflected}}
	if hasFold {
		ks = append(ks, crcKernel{"fold", crcFold})
	}
	return ks
}

// prefixes is the bit-serial register after every prefix of p, advanced
// octet by octet so that each prefix costs one step more than the last.
func prefixes(preset uint32, p []byte) []uint32 {
	ref := make([]uint32, len(p)+1)
	ref[0] = preset
	for i := range p {
		ref[i+1] = bitSerialUpdate(ref[i], p[i:i+1])
	}
	return ref
}

// FuzzAAL5CRC holds crcUpdate to the bit-serial reference on arbitrary
// input, both one-shot and streamed across an arbitrary split (the way
// newPDU runs it over payload, pad and trailer). Seeds: every length 0-17
// here, longer ones in testdata/fuzz/FuzzAAL5CRC — among them the lengths
// around foldMin and a block past it (63-65, 79, 80), around reflectMin and
// reflectBlock, and one short of 4 KB, so plain go test crosses every
// kernel's threshold and the fold's four-block and one-block loops.
func FuzzAAL5CRC(f *testing.F) {
	for n := 0; n <= 17; n++ {
		f.Add(patterned(n), uint16(n/2))
	}
	f.Fuzz(func(t *testing.T, p []byte, split uint16) {
		want := crcBitSerial(p)
		if got := aal5crc32(p); got != want {
			t.Fatalf("len %d: crc %08x, bit-serial %08x", len(p), got, want)
		}
		k := 0
		if len(p) > 0 {
			k = int(split) % (len(p) + 1)
		}
		if got := ^crcUpdate(crcUpdate(^uint32(0), p[:k]), p[k:]); got != want {
			t.Fatalf("len %d split %d: streamed crc %08x, bit-serial %08x", len(p), k, got, want)
		}
	})
}

// TestReflectKernelsAgree holds reflect8, the reflected kernel's mirror
// pass, to the octet-by-octet definition on every length through two mirror
// blocks and beyond (the whole 8-octet words are reflected, the rest left
// alone), with guard octets on both sides of the destination that must come
// back untouched. Every pair of source and destination offsets mod 16 runs
// on each length up to five blocks and a tail; past that, the pair steps
// with the length, so each pair recurs about sixteen times.
func TestReflectKernelsAgree(t *testing.T) {
	const maxLen, guard, allPairs = 2*reflectBlock + 64, 16, 5*16 + 15
	src := patterned(maxLen + 16)
	want := make([]byte, len(src))
	for i, b := range src {
		want[i] = bits.Reverse8(b)
	}
	blank := bytes.Repeat([]byte{0xA5}, guard+16+maxLen+guard)
	dst := bytes.Clone(blank)
	check := func(n, so, do int) {
		words := n &^ 7
		d := dst[guard+do : guard+do+n]
		reflect8(d, src[so:so+n])
		if !bytes.Equal(d[:words], want[so:so+words]) {
			t.Fatalf("len %d src+%d dst+%d: reflected octets differ", n, so, do)
		}
		if !bytes.Equal(dst[do:guard+do], blank[:guard]) || !bytes.Equal(d[words:n+guard], blank[:n-words+guard]) {
			t.Fatalf("len %d src+%d dst+%d: wrote outside the whole words", n, so, do)
		}
		copy(d, blank)
	}
	for n := 0; n <= maxLen; n++ {
		if n > allPairs {
			check(n, n%16, n/16%16)
			continue
		}
		for so := 0; so < 16; so++ {
			for do := 0; do < 16; do++ {
				check(n, so, do)
			}
		}
	}
}

// BenchmarkAAL5CRC is the instrument foldMin and reflectMin cite: each
// kernel called directly — the fold only on amd64 with PCLMULQDQ — and
// crcUpdate's choice between them, on the run lengths the datapath sees: a
// cell payload, short messages around the crossovers, and 1 KB / 8 KB
// chunks. It lives here, not with the root benchmarks, because only this
// package can reach a kernel.
func BenchmarkAAL5CRC(b *testing.B) {
	kernels := append(crcKernels(), crcKernel{"crcUpdate", crcUpdate})
	for _, n := range []int{48, 64, 96, 128, 192, 256, 512, 1024, 8192} {
		p := patterned(n)
		for _, k := range kernels {
			b.Run(fmt.Sprintf("%s/%dB", k.name, n), func(b *testing.B) {
				b.SetBytes(int64(n))
				b.ReportAllocs()
				crc := ^uint32(0)
				for i := 0; i < b.N; i++ {
					crc = k.fn(crc, p)
				}
				crcSink = crc
			})
		}
	}
}

var crcSink uint32
