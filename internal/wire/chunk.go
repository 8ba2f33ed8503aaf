package wire

import (
	"encoding/binary"
	"errors"

	"repro/internal/budget"
)

// Chunk framing: a marshalled message larger than a carrier's frame payload
// is split into chunks, each prefixed by an 8-byte header — message
// sequence (4), chunk index (2), flags (1: last), reserved (1). This is the
// one chunk-header layout in the tree; the ATM carriers put one chunk per
// AAL5 CPCS-PDU, and the reassembly side rebuilds the message with
// Assembler.

// ChunkHeaderSize is the encoded chunk header length in bytes.
const ChunkHeaderSize = 8

const chunkFlagLast = 1

// ChunkHeader is the decoded per-chunk prefix.
type ChunkHeader struct {
	// Seq is the transport-level sequence of the message this chunk
	// belongs to.
	Seq uint32
	// Index is the chunk's position within the message, starting at 0.
	Index uint16
	// Last marks the final chunk of the message.
	Last bool
}

// Errors returned by chunk parsing and reassembly.
var (
	ErrChunkShort = errors.New("wire: chunk shorter than header")
	ErrChunkStray = errors.New("wire: chunk for a message whose head was lost")
	ErrChunkGap   = errors.New("wire: chunk index discontinuity")
	ErrChunkLarge = errors.New("wire: chunked message larger than MaxFrame")
)

// AppendChunkHeader encodes h onto dst.
func AppendChunkHeader(dst []byte, h ChunkHeader) []byte {
	var b [ChunkHeaderSize]byte
	binary.BigEndian.PutUint32(b[0:], h.Seq)
	binary.BigEndian.PutUint16(b[4:], h.Index)
	if h.Last {
		b[6] = chunkFlagLast
	}
	return append(dst, b[:]...)
}

// ParseChunkHeader decodes the prefix of a chunk frame.
func ParseChunkHeader(b []byte) (ChunkHeader, error) {
	if len(b) < ChunkHeaderSize {
		return ChunkHeader{}, ErrChunkShort
	}
	return ChunkHeader{
		Seq:   binary.BigEndian.Uint32(b[0:]),
		Index: binary.BigEndian.Uint16(b[4:]),
		Last:  b[6]&chunkFlagLast != 0,
	}, nil
}

// Fragments returns how many maxPayload-sized fragments an n-byte blob
// needs; an empty blob still takes one (the frame must exist to carry the
// header). Shared by the chunker and the TCP MTU model.
func Fragments(n, maxPayload int) int {
	if n <= 0 {
		return 1
	}
	return (n + maxPayload - 1) / maxPayload
}

// Extent returns the [lo, hi) byte range of fragment i of an n-byte blob
// split at maxPayload.
func Extent(n, maxPayload, i int) (lo, hi int) {
	lo = i * maxPayload
	hi = lo + maxPayload
	if hi > n {
		hi = n
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Chunker iterates the chunk frames of one marshalled message, given whole
// or as two consecutive runs (its encoded header, then its payload where the
// caller left it). It holds no buffers of its own: Parts yields each frame as
// a header and slices of the source, and Next appends them onto a
// caller-provided buffer, so chunk geometry has one definition whether a
// carrier copies the frame (nic.SimATM) or segments straight from the parts
// (udpatm).
type Chunker struct {
	head, body []byte
	seq        uint32
	maxPayload int
	i, n       int
}

// NewChunker returns a chunker over the marshalled message wire, stamping
// every chunk with seq and carrying at most maxPayload message bytes per
// chunk (maxPayload must be > 0).
func NewChunker(wire []byte, seq uint32, maxPayload int) Chunker {
	return NewChunkerRuns(wire, nil, seq, maxPayload)
}

// NewChunkerRuns is NewChunker for a marshalled message that lies in two
// pieces, head ++ body; the chunks are those of the concatenation.
func NewChunkerRuns(head, body []byte, seq uint32, maxPayload int) Chunker {
	if maxPayload <= 0 {
		panic("wire: chunk payload must be positive")
	}
	return Chunker{head: head, body: body, seq: seq, maxPayload: maxPayload,
		n: Fragments(len(head)+len(body), maxPayload)}
}

// NumChunks returns the total number of chunks the message splits into.
func (c *Chunker) NumChunks() int { return c.n }

// Parts yields the next chunk frame without copying it: the encoded chunk
// header, then the frame's message bytes as a slice of the head run followed
// by a slice of the body run (either may be empty). ok is false when all
// chunks have been produced.
func (c *Chunker) Parts() (hdr [ChunkHeaderSize]byte, a, b []byte, ok bool) {
	if c.i >= c.n {
		return hdr, nil, nil, false
	}
	lo, hi := Extent(len(c.head)+len(c.body), c.maxPayload, c.i)
	AppendChunkHeader(hdr[:0], ChunkHeader{ // into hdr's own array
		Seq:   c.seq,
		Index: uint16(c.i),
		Last:  c.i == c.n-1,
	})
	if lo < len(c.head) {
		a = c.head[lo:min(hi, len(c.head))]
	}
	if hi > len(c.head) {
		b = c.body[max(lo, len(c.head))-len(c.head) : hi-len(c.head)]
	}
	c.i++
	return hdr, a, b, true
}

// Next appends the next chunk frame onto dst (pass scratch[:0] to reuse a
// buffer) and returns the extended slice. ok is false when all chunks have
// been produced.
func (c *Chunker) Next(dst []byte) (chunk []byte, ok bool) {
	hdr, a, b, ok := c.Parts()
	if !ok {
		return dst, false
	}
	return append(append(append(dst, hdr[:]...), a...), b...), true
}

// Assembler rebuilds marshalled messages from a stream of chunk frames.
// One Assembler serves one ordered stream (one VC); its buffer grows once
// and is reused for every subsequent message on the stream.
//
// The assembler is strict: a chunk whose sequence differs from the message
// under assembly abandons that message (counted in Dropped), a chunk index
// discontinuity abandons and returns ErrChunkGap, and a chunk arriving for
// a message whose head was never seen returns ErrChunkStray. This is the
// loss behaviour the paper's error-control tier (go-back-N) recovers from.
//
// The chunks come off the network, so the assembler is bounded: a message
// that would grow past MaxFrame is abandoned with ErrChunkLarge, and a chunk
// index cannot wrap — a message has at most 65,536 chunks, and the chunk
// after index 65,535 is a gap.
type Assembler struct {
	buf     []byte
	seq     uint32
	next    int // index the next chunk must carry; 1<<16 once it cannot
	active  bool
	dropped int64
}

// Dropped returns how many partially-assembled messages were abandoned.
func (a *Assembler) Dropped() int64 { return a.dropped }

// Reset discards any partial message without counting a drop.
func (a *Assembler) Reset() {
	a.buf = a.buf[:0]
	a.active = false
	a.next = 0
}

func (a *Assembler) abandon() {
	a.dropped++
	a.Reset()
}

// Push adds the next chunk frame. When the chunk completes a message, Push
// returns the marshalled bytes with done=true; the returned slice is valid
// only until the next Push or Reset (decode or copy before continuing —
// Unmarshal copies). A nil error with done=false means the chunk was
// absorbed into a partial message.
func (a *Assembler) Push(chunk []byte) (msg []byte, done bool, err error) {
	h, err := ParseChunkHeader(chunk)
	if err != nil {
		return nil, false, err
	}
	if a.active && h.Seq != a.seq {
		// A frame of the previous message was lost: abandon the partial
		// so the new message assembles cleanly.
		a.abandon()
	}
	if !a.active {
		if h.Index != 0 {
			// Mid-message start: the head chunk was lost; skip the rest.
			return nil, false, ErrChunkStray
		}
		a.active = true
		a.seq = h.Seq
		a.next = 0
		a.buf = a.buf[:0]
	}
	if int(h.Index) != a.next {
		// Interior chunk lost: the message cannot be completed.
		a.abandon()
		return nil, false, ErrChunkGap
	}
	body := chunk[ChunkHeaderSize:]
	if len(body) > MaxFrame-len(a.buf) {
		a.abandon()
		return nil, false, ErrChunkLarge
	}
	a.next++
	a.buf = append(a.buf, body...)
	budget.Add(budget.RecvCopied, len(body))
	if !h.Last {
		return nil, false, nil
	}
	a.active = false
	return a.buf, true, nil
}
