package atm

// hasSSSE3 gates reflect16: PSHUFB is SSSE3, which the amd64 baseline
// (GOAMD64=v1) does not promise. Set once, from CPUID leaf 1 (ECX bit 9).
var hasSSSE3 = ssse3()

// reflect16 (reflect_amd64.s) writes the whole 16-octet blocks of src to dst
// with the bits of every octet reversed: each octet's two nibbles are looked
// up in a table of mirrored nibbles (PSHUFB) and swapped. It trusts dst to
// be as long as those blocks; mirror slices both to the same length.
//
//go:noescape
func reflect16(dst, src []byte)

// ssse3 reports whether the CPU has SSSE3.
func ssse3() bool

// mirror is crcReflected's reflection pass: dst and src are the same whole
// number of 8-octet words. The kernel takes their 16-octet blocks, reflect8
// the word that may be left.
func mirror(dst, src []byte) {
	if hasSSSE3 {
		n := len(src) &^ 15
		reflect16(dst[:n], src[:n])
		dst, src = dst[n:], src[n:]
	}
	reflect8(dst, src)
}
