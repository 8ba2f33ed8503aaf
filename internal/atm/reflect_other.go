//go:build !amd64

package atm

// mirror is crcReflected's reflection pass: dst and src are the same whole
// number of 8-octet words. Off amd64 the portable reflect8 is the kernel
// (one RBIT per word on arm64).
func mirror(dst, src []byte) { reflect8(dst, src) }
