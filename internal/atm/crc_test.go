package atm

import (
	"math/rand"
	"testing"
)

// crcBitSerial is the AAL5 CRC-32 straight from its definition — one
// message bit at a time through the generator, MSB first, all-ones preset,
// final complement — kept here as the reference crcUpdate is held to.
func crcBitSerial(p []byte) uint32 {
	crc := ^uint32(0)
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
	return ^crc
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

// FuzzAAL5CRC holds crcUpdate to the bit-serial reference on arbitrary
// input, both one-shot and streamed across an arbitrary split (the way
// newPDU runs it over payload, pad and trailer). Seeds: every length 0-17
// here, longer ones in testdata/fuzz/FuzzAAL5CRC.
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
