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

// TestCRCKernelsAgree calls both kernels directly — whichever of them
// crcUpdate would pick on this GOARCH — and holds them to each other and to
// the bit-serial reference: every length through two mirror blocks and
// beyond, the chunk and frame sizes the datapath produces, three starting
// registers (the preset, zero, one taken mid-stream), and every two-call
// split of a run that crosses two block boundaries.
func TestCRCKernelsAgree(t *testing.T) {
	buf := patterned(MaxPDU + 4)
	lengths := []int{8184, 8192, MaxPDU + 4}
	for n := 0; n <= 2*reflectBlock+64; n++ {
		lengths = append(lengths, n)
	}
	for _, preset := range []uint32{^uint32(0), 0, crcTable(^uint32(0), []byte("mid-stream"))} {
		// The reference advances octet by octet, so every prefix costs one
		// step more than the last.
		ref := make([]uint32, len(buf)+1)
		ref[0] = preset
		for i := range buf {
			ref[i+1] = bitSerialUpdate(ref[i], buf[i:i+1])
		}
		for _, n := range lengths {
			tab, refl := crcTable(preset, buf[:n]), crcReflected(preset, buf[:n])
			if tab != ref[n] || refl != ref[n] {
				t.Fatalf("preset %08x len %d: table %08x, reflected %08x, bit-serial %08x", preset, n, tab, refl, ref[n])
			}
		}
		n := 2*reflectBlock + 9
		for k := 0; k <= n; k++ {
			tab := crcTable(crcTable(preset, buf[:k]), buf[k:n])
			refl := crcReflected(crcReflected(preset, buf[:k]), buf[k:n])
			mixed := crcTable(crcReflected(preset, buf[:k]), buf[k:n])
			if tab != ref[n] || refl != ref[n] || mixed != ref[n] {
				t.Fatalf("preset %08x split %d of %d: table %08x, reflected %08x, mixed %08x, bit-serial %08x",
					preset, k, n, tab, refl, mixed, ref[n])
			}
		}
	}
}

// FuzzAAL5CRC holds crcUpdate to the bit-serial reference on arbitrary
// input, both one-shot and streamed across an arbitrary split (the way
// newPDU runs it over payload, pad and trailer). Seeds: every length 0-17
// here, longer ones in testdata/fuzz/FuzzAAL5CRC — among them the lengths
// around reflectMin and reflectBlock, so plain go test crosses both kernels
// and the block boundary.
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

// TestReflectKernelsAgree holds the reflection pass to the octet-by-octet
// definition — portable reflect8, and mirror, which on amd64 with SSSE3 is
// the PSHUFB kernel for the 16-octet blocks — on every length through two
// mirror blocks and beyond (the whole 8-octet words are reflected, the rest
// left alone), with guard octets on both sides of the destination that must
// come back untouched. Every pair of source and destination offsets mod 16
// runs on each length up to five blocks and a tail; past that, the pair
// steps with the length, so each pair recurs about sixteen times.
func TestReflectKernelsAgree(t *testing.T) {
	const maxLen, guard, allPairs = 2*reflectBlock + 64, 16, 5*16 + 15
	src := patterned(maxLen + 16)
	want := make([]byte, len(src))
	for i, b := range src {
		want[i] = bits.Reverse8(b)
	}
	kernels := []struct {
		name string
		fn   func(dst, src []byte)
	}{{"reflect8", reflect8}, {"mirror", mirror}}
	blank := bytes.Repeat([]byte{0xA5}, guard+16+maxLen+guard)
	dst := bytes.Clone(blank)
	check := func(n, so, do int) {
		words := n &^ 7
		for _, k := range kernels {
			d := dst[guard+do : guard+do+n]
			k.fn(d, src[so:so+n])
			if !bytes.Equal(d[:words], want[so:so+words]) {
				t.Fatalf("%s len %d src+%d dst+%d: reflected octets differ", k.name, n, so, do)
			}
			if !bytes.Equal(dst[do:guard+do], blank[:guard]) || !bytes.Equal(d[words:n+guard], blank[:n-words+guard]) {
				t.Fatalf("%s len %d src+%d dst+%d: wrote outside the whole words", k.name, n, so, do)
			}
			copy(d, blank)
		}
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

// BenchmarkAAL5CRC is the instrument reflectMin cites: both kernels called
// directly, and crcUpdate's choice between them, on the run lengths the
// datapath sees — a cell payload, short messages around the crossover, and
// 1 KB / 8 KB chunks. It lives here, not with the root benchmarks, because
// only this package can reach a kernel. The reflect rows time the reflected
// kernel's mirror pass over one block: reflect8, and mirror (the PSHUFB
// kernel on amd64 with SSSE3, reflect8 elsewhere).
func BenchmarkAAL5CRC(b *testing.B) {
	src, dst := patterned(reflectBlock), make([]byte, reflectBlock)
	for _, k := range []struct {
		name string
		fn   func(dst, src []byte)
	}{{"portable", reflect8}, {"kernel", mirror}} {
		b.Run(fmt.Sprintf("reflect/%s/%dB", k.name, reflectBlock), func(b *testing.B) {
			b.SetBytes(reflectBlock)
			for i := 0; i < b.N; i++ {
				k.fn(dst, src)
			}
		})
	}
	kernels := []struct {
		name string
		fn   func(uint32, []byte) uint32
	}{{"table", crcTable}, {"reflected", crcReflected}, {"crcUpdate", crcUpdate}}
	for _, n := range []int{48, 128, 192, 256, 512, 1024, 8192} {
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
