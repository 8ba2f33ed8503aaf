package wire

import "sync"

// Buf is a pooled byte buffer. B is the working slice; Append into it and
// write the result back (wb.B = m.MarshalAppend(wb.B)). The wrapper struct
// travels with the bytes through the pool so a steady-state Get/Put cycle
// allocates nothing.
type Buf struct {
	B []byte
}

// Size classes: powers of two from 64 B to 64 KB. Buffers outside the range
// are served by plain allocation and dropped on PutBuf.
const (
	minClassBits = 6
	maxClassBits = 16
	numClasses   = maxClassBits - minClassBits + 1
)

// MaxPooled is the capacity of the largest size class: the most a caller
// that does not yet trust a claimed length can ask GetBuf for and still get
// a recycled buffer.
const MaxPooled = 1 << maxClassBits

var pools [numClasses]sync.Pool

// classFor returns the pool index whose buffers have capacity >= n, or -1
// if n exceeds the largest class.
func classFor(n int) int {
	for c := 0; c < numClasses; c++ {
		if n <= 1<<(minClassBits+c) {
			return c
		}
	}
	return -1
}

// GetBuf returns a buffer with len(B) == 0 and cap(B) >= capacity, drawn
// from the size-classed pool when possible. Pair with PutBuf at the point
// the bytes are no longer referenced — after the kernel copied a datagram,
// after a frame was decoded, after segmentation copied a chunk into cells.
func GetBuf(capacity int) *Buf {
	c := classFor(capacity)
	if c < 0 {
		return &Buf{B: make([]byte, 0, capacity)}
	}
	if b, ok := pools[c].Get().(*Buf); ok {
		b.B = b.B[:0]
		return b
	}
	return &Buf{B: make([]byte, 0, 1<<(minClassBits+c))}
}

// PutBuf recycles b. The caller must no longer reference b.B (nor slices of
// it): the backing array is handed to the next GetBuf of the same class.
func PutBuf(b *Buf) {
	if b == nil {
		return
	}
	// Oversized buffers (beyond the largest class) are dropped so a rare
	// huge message cannot pin its backing array in the pool forever; a
	// buffer that grew within range is re-classed by its new capacity.
	if cap(b.B) > 1<<maxClassBits {
		return
	}
	for i := numClasses - 1; i >= 0; i-- {
		if cap(b.B) >= 1<<(minClassBits+i) {
			pools[i].Put(b)
			return
		}
	}
}
