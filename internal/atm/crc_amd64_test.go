package atm

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestFoldConstants holds each of the fold kernels' constants to its
// definition computed another way. x^n mod P is the bit-serial reference
// over a message whose one set bit is followed by (n-32)/8 zero octets:
// that bit is x^(n-32) of the message polynomial, and the register ends as
// the message times x^32. μ is held to floor(x^64 / P) by its product:
// μ·P must be x^64 plus a remainder under 32 bits.
func TestFoldConstants(t *testing.T) {
	for i, n := range []int{512, 576, 128, 192, 384, 448, 768, 832, 96, 160, 64, 96} {
		msg := make([]byte, 1+(n-32)/8)
		msg[0] = 1
		if got, want := foldK[i], uint64(bitSerialUpdate(0, msg)); got != want {
			t.Errorf("foldK[%d] = %08x, want x^%d mod P = %08x", i, got, n, want)
		}
	}
	mu, p := foldK[12], foldK[13]
	if p != 1<<32|aal5Poly {
		t.Errorf("foldK[13] = %x, want P = %x", p, uint64(1<<32|aal5Poly))
	}
	hi, lo := clmul64(mu, p)
	if hi != 1 || lo>>32 != 0 {
		t.Errorf("μ = %x: μ·P = %x·x^64 + %x, want x^64 plus under 32 bits", mu, hi, lo)
	}
}

// clmul64 is the carry-less product of a and b as (high, low) words.
func clmul64(a, b uint64) (hi, lo uint64) {
	for i := 0; i < 64; i++ {
		if b>>i&1 != 0 {
			lo ^= a << i
			if i > 0 {
				hi ^= a >> (64 - i)
			}
		}
	}
	return hi, lo
}

// foldKernels lists the fold as a CRC kernel when the CPU has it: p's
// whole 16-octet blocks fold onto an accumulator that holds crc and reduce
// once, and the table loop takes the last few octets.
func foldKernels() []crcKernel {
	if !clmul() {
		return nil
	}
	return []crcKernel{{"fold", func(crc uint32, p []byte) uint32 {
		n := len(p) &^ 15
		if n == 0 {
			return crcTable(crc, p)
		}
		acc := crcAcc{hi: uint64(crc) << 32}
		return crcTable(foldBlocks(&acc, p[:n]), p[n:])
	}}}
}

// cellPaths lists the cell-loop paths this host runs: on amd64 the fold
// kernels when the CPU has them, and the portable path, which the tests
// reach by clearing hasFold.
func cellPaths() []cellPath {
	ps := []cellPath{{"portable", false}}
	if clmul() {
		ps = append(ps, cellPath{"fold", true})
	}
	return ps
}

// run calls f with hasFold set for this path, and restores it.
func (p cellPath) run(f func()) {
	old := hasFold
	hasFold = p.fold
	defer func() { hasFold = old }()
	f()
}

// TestBarrettReduction: the fold kernels' one reduction equals the table
// loop's finish — U(0, V), V's 16 octets through the table from a zero
// register — on random 128-bit remainders and on all-zero and all-one.
// foldBlocks over one block from a zero accumulator reduces that block.
func TestBarrettReduction(t *testing.T) {
	if !clmul() {
		t.Skip("no fold kernel on this host")
	}
	rng := rand.New(rand.NewSource(41))
	vs := [][16]byte{{}, [16]byte(bytes.Repeat([]byte{0xFF}, 16))}
	for i := 0; i < 10000; i++ {
		var v [16]byte
		rng.Read(v[:])
		vs = append(vs, v)
	}
	for _, v := range vs {
		var acc crcAcc
		if got, want := foldBlocks(&acc, v[:]), crcTable(0, v[:]); got != want {
			t.Fatalf("V = %x: Barrett %08x, table finish %08x", v, got, want)
		}
	}
}
