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
// One Assembler serves one ordered stream (one VC). It builds each message
// in a message frame laid out as GetFrame lays one, so the payload starts
// PayloadAlign-aligned, and Take hands that frame, message and all, to the
// consumer (UnmarshalPooled); a frame not taken is reused for the next
// message. The frame is sized from the stream's last message and grows, with
// one copy of the message so far, when a message outgrows it.
//
// A chunk reaches the frame one of two ways, and Push commits it either way,
// with one set of checks. A carrier that reassembles its frames gathers the
// chunk in place: Place gives it the spot the next chunk goes — the chunk
// header over the last ChunkHeaderSize octets of the message so far, which
// the assembler saves and Push restores, and the body right after them —
// and the carrier's frame lands there (udpatm lends it to atm.Reassembler),
// so the body is already where the message needs it. Place gives no spot
// before the stream has completed a message: until then nothing shows how
// large a frame the stream's traffic needs, and the chunks come off the
// network. Push copies any other chunk into place: that is how a stream's
// first message arrives, and how a caller holding a chunk in a buffer of
// its own uses the assembler — nic's adapter model, which copies each
// message out again with Unmarshal and so gains nothing from gathering, and
// the codec benchmarks, which time exactly that copy.
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
	// fb is the message frame, nil until a chunk needs one and after Take.
	// fb.B runs from where GetFrame began it, and its capacity is the
	// frame's: the message under assembly, or the last one completed, is
	// fb.B[at:at+n]. The frame is laid out for a lay-octet header at
	// at = ChunkHeaderSize, which leaves room for chunk 0's header before
	// the message.
	fb    *Buf
	lay   int
	at, n int

	// hdr and last are the header length and the length of the stream's
	// last message: the next message's frame is laid out and sized by them.
	hdr, last int

	// saved is what fb.B[savedAt:] held before Place gave it out as the
	// next chunk header's spot; placed while the place is out, until Push.
	saved   [ChunkHeaderSize]byte
	savedAt int
	placed  bool

	seq     uint32
	next    int // index the next chunk must carry; 1<<16 once it cannot
	active  bool
	dropped int64
}

// Dropped returns how many partially-assembled messages were abandoned.
func (a *Assembler) Dropped() int64 { return a.dropped }

// Reset discards any partial message without counting a drop.
func (a *Assembler) Reset() {
	a.active = false
	a.next, a.n = 0, 0
}

func (a *Assembler) abandon() {
	a.dropped++
	a.Reset()
}

// frame returns the message frame to its capacity.
func (a *Assembler) frame() []byte { return a.fb.B[:cap(a.fb.B)] }

// atFor returns where a message with an hdrLen-octet header starts in the
// frame: past room for a chunk header, where its payload lands on a
// PayloadAlign boundary.
func (a *Assembler) atFor(hdrLen int) int {
	return ChunkHeaderSize + (a.lay-hdrLen)&(PayloadAlign-1)
}

// begin opens a message with an hdrLen-octet header in the frame, laying a
// frame yet to be drawn out for it.
func (a *Assembler) begin(hdrLen int) {
	if a.fb == nil {
		a.lay = hdrLen
	}
	a.at, a.n = a.atFor(hdrLen), 0
}

// grow replaces the frame by one of capacity size. The message so far
// moves into it, to the same offset; a message not yet begun has nothing
// to move, and its offset, realigned for its header, may lie past the old
// frame. The old frame is returned, for the caller to release once nothing
// it holds is needed.
func (a *Assembler) grow(size int) (old *Buf) {
	old, a.fb = a.fb, GetFrame(a.lay+ChunkHeaderSize, size)
	if old != nil && a.n > 0 {
		copy(a.frame()[a.at:], old.B[a.at:a.at+a.n])
		budget.Add(budget.RecvCopied, a.n)
	}
	return old
}

// Place returns the place the next chunk goes, for a carrier to gather it
// there: the chunk's frame opens at the end of the returned slice — its
// chunk header over the last ChunkHeaderSize octets of the message so far,
// which Place saves — and has the slice's spare capacity. room is the most
// a carrier frame takes, and tail the most it lays past the chunk it
// carries (its pad and trailer). The frame is drawn for the message the
// stream's last one predicts, tail included; past that, it grows to leave
// room octets spare, but to no more than twice what the message holds, so
// the memory a stream holds follows the octets it has delivered. Before
// the stream's first message completes, Place returns nil and the carrier
// keeps the chunk in a buffer of its own. A frame that outgrows its place
// is the carrier's to finish elsewhere; Push copies its chunk in.
//
// The place stays out until Push takes the next chunk, which restores the
// saved octets first. So a frame that lands there and fails — its CRC, its
// length, its size — costs nothing: the next frame lands at the same place,
// Place returning it again, and the octets are back by the time the chunk
// it carries commits. A carrier may ask before every frame it might start.
func (a *Assembler) Place(room, tail int) []byte {
	if a.last == 0 {
		return nil
	}
	if !a.placed {
		if !a.active {
			a.begin(a.hdr)
		}
		want := a.at + a.last + tail
		if a.n >= a.last {
			want = min(a.at+a.n-ChunkHeaderSize+room, 2*(a.at+a.n))
		}
		if a.fb == nil || cap(a.fb.B) < want {
			PutBuf(a.grow(want))
		}
		a.savedAt = a.at + a.n - ChunkHeaderSize
		a.saved = [ChunkHeaderSize]byte(a.frame()[a.savedAt:])
		a.placed = true
	}
	return a.fb.B[:a.savedAt]
}

// restore takes the place back, putting the octets it saved where a chunk
// header gathered there may have overwritten them.
func (a *Assembler) restore() {
	if a.placed {
		copy(a.frame()[a.savedAt:], a.saved[:])
		a.placed = false
	}
}

// Push adds the next chunk frame: one gathered at Place's place, or one
// anywhere else, which Push copies there. When the chunk completes a
// message, Push returns the marshalled bytes with done=true; they stay in
// the frame, valid until the next Place, Push or Reset, unless Take hands
// the frame over. A nil error with done=false means the chunk was absorbed
// into a partial message.
func (a *Assembler) Push(chunk []byte) (msg []byte, done bool, err error) {
	h, err := ParseChunkHeader(chunk)
	a.restore() // chunk's header is read; its octets go back to the message
	if err != nil {
		return nil, false, err
	}
	if a.active && h.Seq != a.seq {
		// A frame of the previous message was lost: abandon the partial
		// so the new message assembles cleanly.
		a.abandon()
	}
	body := chunk[ChunkHeaderSize:]
	if !a.active {
		if h.Index != 0 {
			// Mid-message start: the head chunk was lost; skip the rest.
			return nil, false, ErrChunkStray
		}
		a.active = true
		a.seq = h.Seq
		a.next = 0
		a.hdr = HeaderLen(body)
		a.begin(a.hdr) // a body gathered for another header length moves
	}
	if int(h.Index) != a.next {
		// Interior chunk lost: the message cannot be completed.
		a.abandon()
		return nil, false, ErrChunkGap
	}
	if len(body) > MaxFrame-a.n {
		a.abandon()
		return nil, false, ErrChunkLarge
	}
	a.next++
	a.settle(body)
	if !h.Last {
		return nil, false, nil
	}
	a.active = false
	a.last = a.n
	return a.fb.B[a.at : a.at+a.n], true, nil
}

// settle appends body to the message: a body gathered in place is already
// there, and any other is copied in, into a larger frame if need be.
func (a *Assembler) settle(body []byte) {
	at, end := a.at+a.n, a.at+a.n+len(body)
	if a.fb == nil || cap(a.fb.B) < end {
		size := max(end, a.at+a.last)
		if a.fb != nil {
			size = max(size, min(2*cap(a.fb.B), MaxFrame))
		}
		defer PutBuf(a.grow(size)) // body may lie in the old frame
	}
	if dst := a.frame()[at:end]; len(body) > 0 && &dst[0] != &body[0] {
		copy(dst, body)
		budget.Add(budget.RecvCopied, len(body))
	}
	a.n += len(body)
}

// Take hands over the frame of the message the last Push completed, with
// B that message: the consumer owns it (UnmarshalPooled; its Release puts
// the frame back). Call it only when that Push reported done. The next
// message gets a frame of its own.
func (a *Assembler) Take() *Buf {
	fb := a.fb
	fb.B = fb.B[a.at : a.at+a.n]
	a.fb, a.n = nil, 0
	return fb
}
