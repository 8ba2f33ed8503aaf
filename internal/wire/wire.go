// Package wire owns NCS message framing end-to-end: the message header
// codec, the chunk framing that splits a marshalled message across AAL5
// frames (or MTU-sized TCP segments), and the pooled buffers the hot path
// runs on. It is the single wire-format authority in the tree — every
// carrier (transport.Mem, tcpip.SimTCP, tcpip.TCPEndpoint, nic.SimATM,
// udpatm.UDP) delegates framing, segmentation extents, and reassembly to
// this package instead of keeping a private copy of the byte layout.
//
// The package reproduces the paper's host-overhead argument in Go terms
// (Yadav, Reddy, Hariri, Fox; HPDC '95): NCS wins on the ATM path by
// eliminating per-message copies and buffer management. Accordingly the
// codec is append-style throughout — MarshalAppend and Chunker.Next write
// into caller-provided buffers (AppendHeader and Chunker.Parts go one
// further and hand a carrier the pieces, so it copies the payload only into
// its own frames), Assembler builds each message in the pooled frame the
// consumer decodes (a carrier can gather the chunks into it in place), and
// GetBuf/PutBuf recycle backing arrays through sync.Pool size classes — so a
// steady-state send → segment → reassemble → deliver cycle allocates (almost)
// nothing. The one copy a receive cannot avoid, the payload out to the
// application, runs from a 64-byte-aligned source: every carrier stages a
// received frame with GetFrame, which pads its header to end on a boundary.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ProcID identifies a process (one per simulated/emulated workstation).
type ProcID int

// Any is the wildcard process value in receive matching (the paper's -1).
const Any = -1

// ChannelID identifies one NCS channel (virtual circuit) between a process
// pair. Channel 0 is the default channel every process pair has implicitly;
// nonzero channels are opened explicitly with their own QoS (flow control,
// error control, priority). The ATM carriers map the channel ID onto the
// VPI, so IDs above 255 cannot ride distinct VCs — the core enforces that
// bound at open time.
type ChannelID uint16

// Message is one NCS/p4 message. Thread fields use the paper's addressing:
// a message goes from (FromProc, FromThread) to (ToProc, ToThread). The p4
// baseline leaves thread fields zero and uses Tag as the p4 message type.
type Message struct {
	From       ProcID
	To         ProcID
	FromThread int
	ToThread   int
	Tag        int
	// Seq is the transport-level sequence, owned by the endpoint.
	Seq uint32
	// ESeq is the end-to-end sequence used by NCS error control (go-back-N);
	// endpoints carry it untouched.
	ESeq uint32
	// Channel is the NCS channel the message travels on; 0 is the default
	// channel. Endpoints carry it untouched; the ATM carriers additionally
	// use it to select the virtual circuit.
	Channel ChannelID
	// Credit and Ack are the piggybacked control plane (format v3): a data
	// frame can carry the sending end's *receiver-role* state for its
	// channel — the flow tier's cumulative credit advertisement and one
	// error-control acknowledgement — so steady bidirectional traffic needs
	// no standalone control frames. HasCredit/HasAck gate each word's
	// presence on the wire; an absent word costs nothing (the v2 header
	// size). Both values are cumulative and consumed with wrap-safe
	// SeqNewer semantics, so a piggybacked word lost with its data frame is
	// simply superseded by a later one.
	Credit, Ack       uint32
	HasCredit, HasAck bool
	Data              []byte

	// pooled, when non-nil, is the pooled buffer Data aliases and whose
	// msg this Message is (UnmarshalPooled); Release returns it to the pool.
	pooled *Buf
}

func (m *Message) String() string {
	return fmt.Sprintf("msg{%d.%d->%d.%d ch=%d tag=%d seq=%d %dB}",
		m.From, m.FromThread, m.To, m.ToThread, m.Channel, m.Tag, m.Seq, len(m.Data))
}

// HeaderSize is the encoded base header length in bytes. Version 2 of the
// format grew the header from 32 to 36 bytes: a 2-byte channel ID plus two
// reserved bytes. Version 3 keeps the 36-byte base but gives the first
// reserved byte to a flags field gating *optional* trailing control words
// (piggybacked credit/ack, 4 bytes each, between header and payload), so a
// frame carrying no control still costs exactly the v2 size. Version 4 let a
// word name a channel other than the frame's own (flag bit 2 and one trailing
// octet per word); that is retired — a word always belongs to the frame's
// channel — and the bit is now one of the undefined ones checkHeader rejects,
// so an older peer's cross-channel frame fails loudly instead of having its
// channel octets read as payload. The magic is bumped at each revision that
// an older decoder would misparse.
const HeaderSize = 36

// Optional-field flags (header byte 34). Every other bit, and the reserved
// octet after it, must be zero.
const (
	flagCredit = 1 << 0 // 4-byte cumulative credit advertisement present
	flagAck    = 1 << 1 // 4-byte error-control acknowledgement present
)

// ErrShortMessage reports a truncated wire message.
var ErrShortMessage = errors.New("wire: short message")

// ErrMagic reports a wire message with a bad magic number.
var ErrMagic = errors.New("wire: bad magic")

// ErrFlags reports a header that sets a flag bit the codec does not define,
// or a non-zero reserved octet.
var ErrFlags = errors.New("wire: undefined header flags")

const wireMagic = 0x4E435334 // "NCS4"

// optSize returns the encoded length of the message's optional control
// words.
func (m *Message) optSize() int {
	n := 0
	if m.HasCredit {
		n += 4
	}
	if m.HasAck {
		n += 4
	}
	return n
}

// WireSize returns the encoded length of the message (header + optional
// control words + payload).
func (m *Message) WireSize() int { return HeaderSize + m.optSize() + len(m.Data) }

// MaxHeaderSize is the longest encoded header: the base header and both
// optional control words.
const MaxHeaderSize = HeaderSize + 8

// MaxFrame is the largest frame — header, control words and payload — any
// reader accepts: the longest length prefix the TCP reader takes, and the
// most an Assembler buffers for one message.
const MaxFrame = 64 << 20

// HeaderLen returns the encoded header length a frame announces: the base
// header plus the control words its flag octet (byte 34) sets. A frame too
// short to hold the flag octet announces the base header alone; it fails
// every decode anyway. A carrier that stages a received frame reads the
// length here to lay the frame out with GetFrame.
func HeaderLen(frame []byte) int {
	if len(frame) < HeaderSize {
		return HeaderSize
	}
	n := HeaderSize
	if frame[34]&flagCredit != 0 {
		n += 4
	}
	if frame[34]&flagAck != 0 {
		n += 4
	}
	return n
}

// MarshalAppend encodes the message (header + payload) onto dst and returns
// the extended slice. Callers that size dst with WireSize (typically via
// GetBuf) get an allocation-free encode.
func (m *Message) MarshalAppend(dst []byte) []byte {
	return append(m.AppendHeader(dst), m.Data...)
}

// AppendHeader encodes everything of the message but its payload — the base
// header and the optional control words, at most MaxHeaderSize octets — onto
// dst. The wire form is AppendHeader ++ Data; a carrier that segments the
// message (wire.NewChunkerRuns) encodes the header here and reads the payload
// from where the caller left it.
func (m *Message) AppendHeader(dst []byte) []byte {
	var hdr [HeaderSize]byte
	off := len(dst)
	dst = append(dst, hdr[:]...)
	h := dst[off:]
	binary.BigEndian.PutUint32(h[0:], wireMagic)
	binary.BigEndian.PutUint32(h[4:], uint32(int32(m.From)))
	binary.BigEndian.PutUint32(h[8:], uint32(int32(m.To)))
	binary.BigEndian.PutUint32(h[12:], uint32(int32(m.FromThread)))
	binary.BigEndian.PutUint32(h[16:], uint32(int32(m.ToThread)))
	binary.BigEndian.PutUint32(h[20:], uint32(int32(m.Tag)))
	binary.BigEndian.PutUint32(h[24:], m.Seq)
	binary.BigEndian.PutUint32(h[28:], m.ESeq)
	binary.BigEndian.PutUint16(h[32:], uint16(m.Channel))
	var flags byte
	if m.HasCredit {
		flags |= flagCredit
	}
	if m.HasAck {
		flags |= flagAck
	}
	h[34] = flags
	// h[35] reserved, zero.
	if m.HasCredit {
		dst = AppendUint32(dst, m.Credit)
	}
	if m.HasAck {
		dst = AppendUint32(dst, m.Ack)
	}
	return dst
}

// Marshal encodes the message into a fresh buffer: MarshalAppend into an
// exactly-sized allocation. Hot paths should prefer MarshalAppend with a
// pooled buffer.
func (m *Message) Marshal() []byte {
	return m.MarshalAppend(make([]byte, 0, m.WireSize()))
}

// decodeHeader fills m's header and optional-word fields from b, which the
// caller has validated with checkWire, and returns the offset where the
// payload begins.
func decodeHeader(m *Message, b []byte) int {
	m.From = ProcID(int32(binary.BigEndian.Uint32(b[4:])))
	m.To = ProcID(int32(binary.BigEndian.Uint32(b[8:])))
	m.FromThread = int(int32(binary.BigEndian.Uint32(b[12:])))
	m.ToThread = int(int32(binary.BigEndian.Uint32(b[16:])))
	m.Tag = int(int32(binary.BigEndian.Uint32(b[20:])))
	m.Seq = binary.BigEndian.Uint32(b[24:])
	m.ESeq = binary.BigEndian.Uint32(b[28:])
	m.Channel = ChannelID(binary.BigEndian.Uint16(b[32:]))
	flags := b[34]
	off := HeaderSize
	if flags&flagCredit != 0 {
		m.Credit = binary.BigEndian.Uint32(b[off:])
		m.HasCredit = true
		off += 4
	}
	if flags&flagAck != 0 {
		m.Ack = binary.BigEndian.Uint32(b[off:])
		m.HasAck = true
		off += 4
	}
	return off
}

// AppendUint32 appends v to dst big-endian. Control-message payload writers
// (credits, acks, barrier generations) use it with reusable buffers so a
// steady stream of acknowledgements encodes allocation-free.
func AppendUint32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// Uint32 reads a big-endian uint32 from b, returning 0 when b is short —
// the forgiving decode control handlers want for possibly-empty payloads.
func Uint32(b []byte) uint32 {
	if len(b) < 4 {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// SeqNewer reports whether a is strictly newer than b in 32-bit serial-
// number arithmetic (wrap-safe, RFC 1982 style). Control payloads written
// with AppendUint32 carry *cumulative* counters — credit advertisements,
// cumulative acks — precisely so that any later message supersedes a lost
// one on a lossy carrier; consumers compare them with SeqNewer so the
// protocol keeps working when the counter wraps. Equal values are not
// newer: a duplicate advertisement is stale by definition.
func SeqNewer(a, b uint32) bool { return int32(a-b) > 0 }

// checkWire validates a complete frame before it is decoded.
func checkWire(b []byte) error { return checkHeader(b, len(b)) }

// checkHeader validates a frame of frameLen bytes from its leading bytes
// alone (hdr may be the whole frame or just its first HeaderSize bytes):
// the magic, no flag the codec does not define (what such a flag announced
// would otherwise be read as payload), and room in the frame for the base
// header and for every optional control word the flags announce.
func checkHeader(hdr []byte, frameLen int) error {
	if len(hdr) < HeaderSize || frameLen < HeaderSize {
		return ErrShortMessage
	}
	if binary.BigEndian.Uint32(hdr[0:]) != wireMagic {
		return ErrMagic
	}
	if hdr[34]&^(flagCredit|flagAck) != 0 || hdr[35] != 0 {
		return ErrFlags
	}
	if frameLen < HeaderLen(hdr) {
		return ErrShortMessage
	}
	return nil
}

// PeekHeader validates a frame of frameLen bytes whose first HeaderSize
// bytes are hdr, before the rest has been read, and returns the addresses it
// claims. A stream carrier facing an untrusted peer calls it on the header
// alone, so that it commits memory for the body — and hands the frame to a
// consumer, whose Unmarshal then cannot fail — only once the header is known
// to be well-formed and addressed as the connection allows. The header
// carries no payload length: whatever of frameLen the header and its control
// words leave is the payload.
func PeekHeader(hdr []byte, frameLen int) (from, to ProcID, err error) {
	if err := checkHeader(hdr, frameLen); err != nil {
		return 0, 0, err
	}
	from = ProcID(int32(binary.BigEndian.Uint32(hdr[4:])))
	to = ProcID(int32(binary.BigEndian.Uint32(hdr[8:])))
	return from, to, nil
}

// Unmarshal decodes a wire message. Data is copied out of b, so the caller
// remains free to reuse or recycle b — the right call when b is a pooled or
// per-stream reassembly buffer.
func Unmarshal(b []byte) (*Message, error) {
	if err := checkWire(b); err != nil {
		return nil, err
	}
	m := &Message{}
	off := decodeHeader(m, b)
	if len(b) > off {
		m.Data = append([]byte(nil), b[off:]...)
	}
	return m, nil
}

// UnmarshalPooled decodes a wire message that takes ownership of the
// *pooled* buffer backing it: the Message is the one the buffer carries
// (Buf.msg), Data aliases the buffer past the header with no copy, and
// Release hands the buffer — Message and all — back to its pool once the
// payload has been consumed. A received frame therefore costs one pool draw
// and one return. This is the
// delivery path of every carrier that stages each arriving message in its
// own pooled frame (the in-process Mem mesh and SimMesh, the real-TCP
// reader, the UDP/ATM reassembly tail), each laid out by GetFrame so Data
// starts 64-byte aligned: a consumer that copies the payload out —
// RecvInto, control handlers — closes the loop, so steady-state receive
// traffic stops allocating at all. Messages whose payload the application
// keeps (plain Recv) are simply never Released and fall to the garbage
// collector with their buffer.
func UnmarshalPooled(fb *Buf) (*Message, error) {
	if err := checkWire(fb.B); err != nil {
		return nil, err
	}
	m := &fb.msg
	off := decodeHeader(m, fb.B)
	if len(fb.B) > off {
		m.Data = fb.B[off:]
	}
	m.pooled = fb
	return m, nil
}

// Release recycles the message's pooled buffer, which the message itself
// lives in, if pooled; the message and its Data are invalid afterwards.
// Only the consumer that owns the message may call it, and only once the
// payload has been copied out or will never be read (a control frame, a
// suppressed duplicate). Messages without a pooled buffer ignore it, so
// the call is safe on every owning path.
func (m *Message) Release() {
	if m.pooled == nil {
		return
	}
	fb := m.pooled
	*m = Message{}
	PutBuf(fb)
}
