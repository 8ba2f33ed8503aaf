package atm

import "testing"

// TestFoldConstants holds each of the fold kernel's constants to x^n mod P
// computed another way: the bit-serial reference over a message whose one
// set bit is followed by (n-32)/8 zero octets. That bit is x^(n-32) of the
// message polynomial, and the register ends as the message times x^32.
func TestFoldConstants(t *testing.T) {
	for i, n := range []int{512, 576, 128, 192} {
		msg := make([]byte, 1+(n-32)/8)
		msg[0] = 1
		if got, want := foldK[i], uint64(bitSerialUpdate(0, msg)); got != want {
			t.Errorf("foldK[%d] = %08x, want x^%d mod P = %08x", i, got, n, want)
		}
	}
}
