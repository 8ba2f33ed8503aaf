package atm

import "encoding/binary"

// aal5Poly is the AAL5 CRC-32 generator (I.363.5), processed MSB-first.
const aal5Poly = 0x04C11DB7

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

// aal5crc32 computes the AAL5 CRC-32 (generator 0x04C11DB7, init all-ones,
// final complement) over p. Implemented directly rather than via
// hash/crc32 because AAL5 processes bits MSB-first, unlike the reflected
// IEEE 802.3 byte order hash/crc32 implements.
func aal5crc32(p []byte) uint32 {
	return ^crcUpdate(^uint32(0), p)
}
