package wire

import (
	"sync"

	"repro/internal/budget"
)

// Buf is a pooled byte buffer. B is the working slice; Append into it and
// write the result back (wb.B = m.MarshalAppend(wb.B)). The wrapper struct
// travels with the bytes through the pool so a steady-state Get/Put cycle
// allocates nothing.
//
// A Buf also carries the Message that UnmarshalPooled decodes its frame
// into, so a received frame costs one pool draw (GetFrame) and one return
// (Release, through PutBuf) in all: the header struct rides with the bytes
// it describes instead of coming from a pool of its own.
//
// B need not start at the first byte of the buffer's backing array: a
// GetFrame buffer begins past a pad, so that the payload of the frame it
// holds lands on a 64-byte boundary. B may also outgrow the array (append
// moves it to a larger one). Either way PutBuf recycles the array the buffer
// was drawn with, whole, into the class it came from.
type Buf struct {
	B []byte
	// arr is the backing array as drawn, from its first byte, with len 0;
	// nil for a buffer too large for any class, which is never pooled.
	arr []byte
	// msg is the decoded frame UnmarshalPooled hands out; zero whenever the
	// Buf is not lent out as a received message.
	msg Message
}

// Size classes: powers of two from 64 B to 64 KB. Buffers outside the range
// are served by plain allocation and dropped on PutBuf. Go's allocator puts
// each class's arrays (and any larger allocation) on a 64-byte boundary,
// which is what GetFrame's pad relies on.
const (
	minClassBits = 6
	maxClassBits = 16
	numClasses   = maxClassBits - minClassBits + 1
)

// MaxPooled is the capacity of the largest size class: the most a caller
// that does not yet trust a claimed length can ask GetBuf for and still get
// a recycled buffer.
const MaxPooled = 1 << maxClassBits

// PayloadAlign is the boundary GetFrame puts a frame's payload on: a cache
// line. On amd64 CPUs with ERMS and FSRM, Go 1.24's memmove copies 2 KB and
// more with REP MOVSQ, which runs about 5x slower from a source that is
// only 4 mod 8 (the payload behind a bare 36-byte header) and about 25 %
// slower from one aligned to 8 alone (BenchmarkCopyOut).
const PayloadAlign = 64

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
// from the size-classed pool when possible; B starts at the first byte of
// the array. Pair with PutBuf at the point the bytes are no longer
// referenced — after the kernel copied a datagram, after segmentation copied
// a chunk into cells. A buffer that will be decoded as one received frame
// (UnmarshalPooled) comes from GetFrame instead.
func GetBuf(capacity int) *Buf {
	budget.Add(budget.PoolDraws, 1)
	c := classFor(capacity)
	if c < 0 {
		return &Buf{B: make([]byte, 0, capacity)}
	}
	if b, ok := pools[c].Get().(*Buf); ok {
		return b
	}
	arr := make([]byte, 0, 1<<(minClassBits+c))
	return &Buf{B: arr, arr: arr}
}

// GetFrame returns a buffer for one frame of frameLen bytes whose header —
// the base header and its control words, HeaderLen — is hdrLen bytes long:
// len(B) == 0, cap(B) >= frameLen, and B starts -hdrLen mod PayloadAlign
// bytes into its array, so the payload of the frame appended into it starts
// on a PayloadAlign boundary. Every carrier stages a received frame for
// UnmarshalPooled here: the consumer's copy out of the payload (RecvInto)
// then runs from an aligned source. The pad costs under 64 bytes of
// capacity; a frame it pushes past MaxPooled is allocated, laid out alike,
// and dropped by PutBuf.
func GetFrame(hdrLen, frameLen int) *Buf {
	pad := -hdrLen & (PayloadAlign - 1)
	b := GetBuf(pad + frameLen)
	b.B = b.B[pad:pad]
	return b
}

// PutBuf recycles b. The caller must no longer reference b.B (nor slices of
// it): the backing array b was drawn with goes, whole, to the next GetBuf or
// GetFrame of its class. A buffer beyond the largest class is dropped, so a
// rare huge message cannot pin its array in the pool forever.
func PutBuf(b *Buf) {
	if b == nil || b.arr == nil {
		return
	}
	b.B = b.arr // also lets go of an array B grew into
	pools[classFor(cap(b.arr))].Put(b)
}
