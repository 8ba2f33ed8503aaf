// Package atm implements the ATM data plane the paper's NCS runs over: the
// 53-byte cell format with HEC header protection, and AAL5 segmentation and
// reassembly (the adaptation layer the SBA-200 adapter implements in
// hardware — "special hardware for AAL CRC", §2).
//
// Cells produced here are real bytes: the UDP "ATM emulation" transport puts
// them on loopback sockets, and the simulated switch forwards them by
// VPI/VCI exactly as a FORE ASX would. Nothing about framing is stubbed.
package atm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Cell geometry.
const (
	CellSize    = 53 // total octets on the wire
	HeaderSize  = 5  // 4 header octets + 1 HEC octet
	PayloadSize = 48 // octets of payload per cell
)

// PT (payload type) bit 0 as used by AAL5: set on the last cell of a
// CPCS-PDU (ATM-layer-user-to-user indication).
const ptAAL5End = 0x1

// Header is the decoded 5-octet UNI cell header.
type Header struct {
	GFC uint8  // generic flow control, 4 bits
	VPI uint8  // virtual path identifier, 8 bits at UNI
	VCI uint16 // virtual channel identifier, 16 bits
	PT  uint8  // payload type, 3 bits
	CLP bool   // cell loss priority
}

// VC identifies a virtual channel (VPI, VCI pair).
type VC struct {
	VPI uint8
	VCI uint16
}

func (v VC) String() string { return fmt.Sprintf("%d/%d", v.VPI, v.VCI) }

// VC returns the header's virtual-channel identifier.
func (h Header) VC() VC { return VC{VPI: h.VPI, VCI: h.VCI} }

// EndOfFrame reports whether the cell closes an AAL5 CPCS-PDU.
func (h Header) EndOfFrame() bool { return h.PT&ptAAL5End != 0 }

// Cell is one 53-octet ATM cell.
type Cell struct {
	Header  Header
	Payload [PayloadSize]byte
}

// Errors returned by cell and AAL5 decoding.
var (
	ErrCellSize   = errors.New("atm: cell is not 53 octets")
	ErrHEC        = errors.New("atm: HEC mismatch (corrupt header)")
	ErrFieldRange = errors.New("atm: header field out of range")
	ErrCRC        = errors.New("atm: AAL5 CRC-32 mismatch")
	ErrLength     = errors.New("atm: AAL5 length field mismatch")
	ErrTooLong    = errors.New("atm: AAL5 payload exceeds 65535 octets")
	ErrNoFrame    = errors.New("atm: cell outside any frame")
	ErrVC         = errors.New("atm: cell for another VC")
)

// hecTable is the CRC-8 table for polynomial x^8 + x^2 + x + 1 (0x07), the
// ITU-T I.432 HEC generator.
var hecTable [256]byte

func init() {
	for i := 0; i < 256; i++ {
		crc := byte(i)
		for b := 0; b < 8; b++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
		hecTable[i] = crc
	}
}

// HEC computes the header error control octet over the 4 header octets,
// including the I.432 coset offset 0x55.
func HEC(h4 [4]byte) byte {
	crc := byte(0)
	for _, b := range h4 {
		crc = hecTable[crc^b]
	}
	return crc ^ 0x55
}

// headerBytes packs the first four header octets (UNI format).
func (h Header) headerBytes() ([4]byte, error) {
	var out [4]byte
	if h.GFC > 0xF || h.PT > 0x7 {
		return out, ErrFieldRange
	}
	out[0] = h.GFC<<4 | h.VPI>>4
	out[1] = h.VPI<<4 | byte(h.VCI>>12)
	out[2] = byte(h.VCI >> 4)
	clp := byte(0)
	if h.CLP {
		clp = 1
	}
	out[3] = byte(h.VCI)<<4 | h.PT<<1 | clp
	return out, nil
}

// wire packs the full 5-octet wire header: four octets and their HEC.
func (h Header) wire() (out [HeaderSize]byte, err error) {
	h4, err := h.headerBytes()
	if err != nil {
		return out, err
	}
	copy(out[:], h4[:])
	out[4] = HEC(h4)
	return out, nil
}

// Encode serializes the cell into dst, which must be at least CellSize long.
func (c *Cell) Encode(dst []byte) error {
	if len(dst) < CellSize {
		return ErrCellSize
	}
	hdr, err := c.Header.wire()
	if err != nil {
		return err
	}
	copy(dst, hdr[:])
	copy(dst[HeaderSize:CellSize], c.Payload[:])
	return nil
}

// Bytes returns the 53-octet wire form of the cell.
func (c *Cell) Bytes() []byte {
	out := make([]byte, CellSize)
	if err := c.Encode(out); err != nil {
		panic(err) // only field-range errors, which Bytes' callers construct
	}
	return out
}

// DecodeHeader parses the 5-octet wire header at the front of src,
// verifying the HEC. src may run on past the header (a whole cell, or a
// train of them).
func DecodeHeader(src []byte) (h Header, err error) {
	err = h.decode(src)
	return h, err
}

// decode is DecodeHeader in place: DecodeCell unpacks straight into the
// cell it returns.
func (h *Header) decode(src []byte) error {
	if len(src) < HeaderSize {
		return ErrCellSize
	}
	h4 := [4]byte(src)
	if HEC(h4) != src[4] {
		return ErrHEC
	}
	h.GFC = h4[0] >> 4
	h.VPI = h4[0]<<4 | h4[1]>>4
	h.VCI = uint16(h4[1]&0xF)<<12 | uint16(h4[2])<<4 | uint16(h4[3]>>4)
	h.PT = h4[3] >> 1 & 0x7
	h.CLP = h4[3]&1 != 0
	return nil
}

// DecodeCell parses a 53-octet wire cell, verifying the HEC.
func DecodeCell(src []byte) (c Cell, err error) {
	if len(src) != CellSize {
		return c, ErrCellSize
	}
	if err = c.Header.decode(src); err != nil {
		return c, err
	}
	copy(c.Payload[:], src[HeaderSize:])
	return c, nil
}

// trailerSize is the CPCS-PDU trailer: UU(1) CPI(1) Length(2) CRC(4).
const trailerSize = 8

// MaxPDU is the largest AAL5 payload (16-bit length field).
const MaxPDU = 65535

// maxReassembly is the longest CPCS-PDU (payload ++ pad ++ trailer) a
// legal frame can occupy; a cell stream that runs past it without an
// end-of-frame cell is mis-framed or hostile.
const maxReassembly = (MaxPDU + trailerSize + PayloadSize - 1) / PayloadSize * PayloadSize

// zeroPad is the longest pad run (PayloadSize-1 octets) as CRC input.
var zeroPad [PayloadSize]byte

// pdu is the geometry of one CPCS-PDU — payload ++ pad zeros ++ trailer,
// a whole number of cell payloads — and the one walker that lays it into
// cells. The payload is given as runs, consecutive pieces that need not be
// contiguous in memory (a chunk header built on the stack, then a slice of
// the caller's message), and the CRC is computed streaming over runs, pad
// and trailer, so no contiguous PDU buffer is ever materialized.
type pdu struct {
	runs    [][]byte
	trailer [trailerSize]byte // UU, CPI, Length, CRC-32
	cells   int

	// The walker's position: the next payload octet, as (run, offset).
	run, off int
}

func newPDU(runs ...[]byte) (pdu, error) {
	p := pdu{runs: runs}
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	if n > MaxPDU {
		return p, ErrTooLong
	}
	p.cells = CellCount(n)
	pad := p.cells*PayloadSize - n - trailerSize
	binary.BigEndian.PutUint16(p.trailer[2:], uint16(n))
	crc := ^uint32(0)
	for _, r := range runs {
		crc = crcUpdate(crc, r)
	}
	crc = crcUpdate(crc, zeroPad[:pad])
	crc = crcUpdate(crc, p.trailer[:4])
	binary.BigEndian.PutUint32(p.trailer[4:], ^crc)
	return p, nil
}

// whole returns the next cell's payload when it lies wholly inside the
// current run — every cell of a long run but the one that straddles into
// the next — and steps past it. Such a cell is never the last, since payload
// precedes pad and trailer. ok is false for the cells fill lays.
func (p *pdu) whole() (payload []byte, ok bool) {
	if p.run < len(p.runs) {
		if r := p.runs[p.run][p.off:]; len(r) >= PayloadSize {
			p.off += PayloadSize
			return r[:PayloadSize], true
		}
	}
	return nil, false
}

// fill writes the PayloadSize octets of the next cell into dst: the cell's
// stretch of payload, drawn from as many runs as it spans, then zeros, and —
// in the last cell — the trailer. The last cell is the first one the payload
// leaves room for a trailer in (the pad is shorter than a cell); fill reports
// whether this was it.
func (p *pdu) fill(dst []byte) (last bool) {
	dst = dst[:PayloadSize]
	n := 0
	for p.run < len(p.runs) {
		c := copy(dst[n:], p.runs[p.run][p.off:])
		if n += c; n == PayloadSize {
			p.off += c
			return false
		}
		p.run, p.off = p.run+1, 0
	}
	clear(dst[n:])
	if n > PayloadSize-trailerSize {
		return false
	}
	copy(dst[PayloadSize-trailerSize:], p.trailer[:])
	return true
}

// SegmentInto builds the AAL5 CPCS-PDU for payload and appends its cells on
// the given VC to cells, returning the extended slice. The last cell
// carries the end-of-frame PT indication. An empty payload is legal
// (pure-pad PDU). Passing a scratch slice (cells[:0]) makes segmentation
// allocation-free once the slice has grown to the working set.
func SegmentInto(cells []Cell, vc VC, payload []byte) ([]Cell, error) {
	p, err := newPDU(payload)
	if err != nil {
		return nil, err
	}
	cells = slices.Grow(cells, p.cells)
	for last := false; !last; {
		cells = append(cells, Cell{Header: Header{VPI: vc.VPI, VCI: vc.VCI}})
		c := &cells[len(cells)-1]
		if s, ok := p.whole(); ok {
			copyPayload(c.Payload[:], s)
		} else if last = p.fill(c.Payload[:]); last {
			c.Header.PT = ptAAL5End
		}
	}
	return cells, nil
}

// Segment builds the AAL5 CPCS-PDU for payload and slices it into freshly
// allocated cells on the given VC; SegmentInto is the reuse-friendly form.
func Segment(vc VC, payload []byte) ([]Cell, error) {
	return SegmentInto(nil, vc, payload)
}

// AppendCells segments payload exactly as SegmentInto but appends the
// cells' 53-octet wire form directly onto dst — the shape the UDP fabric
// wants (a datagram is a frame's cells laid end to end), with no
// intermediate []Cell or per-cell Bytes allocation. dst grows at most
// once, to the frame's full length. It is the one-run view of
// AppendCellRuns.
func AppendCells(dst []byte, vc VC, payload []byte) ([]byte, error) {
	return AppendCellRuns(dst, vc, payload)
}

// AppendCellRuns is AppendCells for a payload given as consecutive runs: the
// cells are those of the runs' concatenation, which is never built. A sender
// that frames a message (a header it just encoded, then bytes it was handed)
// serializes straight from where the pieces lie. The runs are only read.
func AppendCellRuns(dst []byte, vc VC, runs ...[]byte) ([]byte, error) {
	p, err := newPDU(runs...)
	if err != nil {
		return nil, err
	}
	// Two headers serve the whole frame: every cell but the last, and the
	// end-of-frame cell. A cell inside one run is stored in two steps, an
	// inline payload move and a fixed 5-octet header store; fill lays the
	// rest.
	hdr, err := Header{VPI: vc.VPI, VCI: vc.VCI}.wire()
	if err != nil {
		return nil, err
	}
	end, err := Header{VPI: vc.VPI, VCI: vc.VCI, PT: ptAAL5End}.wire()
	if err != nil {
		return nil, err
	}
	dst = slices.Grow(dst, p.cells*CellSize)
	for last := false; !last; {
		at := len(dst)
		dst = dst[:at+CellSize]
		if s, ok := p.whole(); ok {
			copyPayload(dst[at+HeaderSize:], s)
		} else if last = p.fill(dst[at+HeaderSize:]); last {
			hdr = end
		}
		*(*[HeaderSize]byte)(dst[at:]) = hdr
	}
	return dst, nil
}

// copyPayload moves one cell payload, src[:PayloadSize] to dst[:PayloadSize],
// with no call. Go compiles a [PayloadSize]byte assignment, or a copy of a
// constant PayloadSize octets, to a runtime.memmove call; it keeps an
// array move inline only up to 16 octets on amd64 and 8 on 386 and arm64.
// So the payload moves as six 8-octet words: inline on all three, and on
// amd64 level with three 16-octet vector moves. The cell loops make one
// per cell.
func copyPayload(dst, src []byte) {
	d, s := (*[PayloadSize]byte)(dst), (*[PayloadSize]byte)(src)
	*(*[8]byte)(d[0:]) = *(*[8]byte)(s[0:])
	*(*[8]byte)(d[8:]) = *(*[8]byte)(s[8:])
	*(*[8]byte)(d[16:]) = *(*[8]byte)(s[16:])
	*(*[8]byte)(d[24:]) = *(*[8]byte)(s[24:])
	*(*[8]byte)(d[32:]) = *(*[8]byte)(s[32:])
	*(*[8]byte)(d[40:]) = *(*[8]byte)(s[40:])
}

// CellCount returns how many cells Segment will produce for a payload of n
// octets; useful for link-time modelling.
func CellCount(n int) int {
	return (n + trailerSize + PayloadSize - 1) / PayloadSize
}

// Reassembler rebuilds CPCS-PDUs from the cell stream of one VC. Cells from
// different VCs must go to different Reassemblers (the per-VC state the
// SBA-200's i960 keeps).
//
// Cells enter either decoded (Push) or in wire form, a run at a time
// (PushWire); both feed the same append/finish core, so every frame gets
// the same checks whichever way its cells arrived, and the two may be
// mixed on one Reassembler.
type Reassembler struct {
	vc      VC
	buf     []byte
	active  bool
	dropped int

	// verified is the last wire header PushWire passed through the HEC and
	// VC checks (valid once haveVerified). A header byte-identical to it is
	// known good — the one shortcut the receive path takes, worth taking
	// because every cell of a frame but the last carries the same header.
	// PushWire's same-header run compares against it.
	verified     [HeaderSize]byte
	haveVerified bool
}

// NewReassembler returns a reassembler for the given VC.
func NewReassembler(vc VC) *Reassembler {
	return &Reassembler{vc: vc}
}

// Dropped returns how many partially-assembled frames were discarded due to
// errors.
func (r *Reassembler) Dropped() int { return r.dropped }

// Buffered returns how many octets the reassembly buffer holds: the frame
// under assembly, or the last one finished or dropped until the next cell
// starts another. ErrTooLong keeps it within CellCount(MaxPDU) cell payloads.
func (r *Reassembler) Buffered() int { return len(r.buf) }

// Push adds the next cell. When the cell completes a frame, Push returns the
// verified payload (done=true). Cells for other VCs are rejected with an
// error wrapping ErrVC.
//
// The returned payload aliases the reassembler's internal buffer and is
// valid only until the next Push or PushWire: the buffer grows once to the
// VC's working set and is then reused for every frame (the per-VC buffer
// recycling the SBA-200's i960 does in hardware). Callers that retain the
// payload must copy it.
//
// A frame longer than any legal CPCS-PDU (no end-of-frame cell within
// CellCount(MaxPDU) cells) is dropped with ErrTooLong, so a mis-framed or
// hostile stream cannot grow the buffer without bound.
func (r *Reassembler) Push(c Cell) (payload []byte, done bool, err error) {
	if c.Header.VC() != r.vc {
		return nil, false, fmt.Errorf("%w: cell for VC %v pushed to reassembler for %v", ErrVC, c.Header.VC(), r.vc)
	}
	return r.add(c.Payload[:], c.Header.EndOfFrame())
}

// PushWire is Push for cells still in wire form: it consumes 53-octet cells
// from the front of src — a datagram's cell train, say — until one
// completes a frame, one is rejected, or fewer than CellSize octets remain,
// and returns the octets consumed. Each header is verified exactly as
// DecodeCell would (a header byte-identical to the last one this
// reassembler verified is known good; anything else goes through HEC) and
// each payload is appended straight from src, with no Cell value built.
// The cells between a frame's first and its end-of-frame cell carry the
// first one's header, so PushWire takes them as a same-header run (see
// run): a 5-octet compare and one inline 48-octet move per cell.
//
// A cell with a corrupt header is consumed and reported as ErrHEC; frame
// errors (ErrCRC, ErrLength, ErrTooLong) are reported on the cell that
// raised them, as from Push. A cell for another VC is not consumed: n stops
// short of it and err is ErrVC, so the caller can hand src[n:] to that VC's
// reassembler. After any return the caller continues with src[n:].
func (r *Reassembler) PushWire(src []byte) (n int, payload []byte, done bool, err error) {
	for len(src)-n >= CellSize {
		cell := src[n : n+CellSize]
		eof, herr := r.verify(cell)
		if herr == ErrVC {
			return n, nil, false, herr
		}
		n += CellSize
		if herr != nil {
			return n, nil, false, herr
		}
		if payload, done, err = r.add(cell[HeaderSize:], eof); done || err != nil {
			return n, payload, done, err
		}
		// run's own first test, made here so that a frame whose next cell
		// breaks the run (a two-cell frame, say) pays no call.
		if len(src)-n >= CellSize && [HeaderSize]byte(src[n:]) == r.verified {
			n += r.run(src[n:])
		}
	}
	return n, nil, false, nil
}

// run is PushWire's same-header run. PushWire calls it once add has taken a
// cell that did not end the frame, so the frame is active and r.verified is
// that cell's header, not end-of-frame. The cells at the front of src that
// repeat that header would each pass verify by identity and be appended by
// add; run appends their payloads directly, one inline move per cell, while
// the frame stays short of maxReassembly, and returns the octets consumed.
// The first cell with another header is left to verify and add, as is the
// cell the bound refuses. The buffer grows as append grows it, a cell at a
// time.
func (r *Reassembler) run(src []byte) (n int) {
	hdr, buf := r.verified, r.buf
	for len(src)-n >= CellSize && len(buf) < maxReassembly {
		cell := src[n : n+CellSize]
		if [HeaderSize]byte(cell) != hdr {
			break
		}
		if at := len(buf); cap(buf)-at >= PayloadSize {
			buf = buf[:at+PayloadSize]
			copyPayload(buf[at:], cell[HeaderSize:])
		} else {
			buf = append(buf, cell[HeaderSize:]...)
		}
		n += CellSize
	}
	r.buf = buf
	return n
}

// verify checks the wire header at the front of cell — HEC, then VC — and
// reports whether it marks the end of a frame.
func (r *Reassembler) verify(cell []byte) (eof bool, _ error) {
	hdr := [HeaderSize]byte(cell)
	if !r.haveVerified || hdr != r.verified {
		var h Header
		if err := h.decode(cell); err != nil {
			return false, err
		}
		if h.VC() != r.vc {
			return false, ErrVC
		}
		r.verified, r.haveVerified = hdr, true
	}
	// PT occupies bits 3..1 of the fourth octet.
	return hdr[3]>>1&ptAAL5End != 0, nil
}

// add is the reassembly core both entry points share: it appends one cell
// payload to the frame under assembly and finishes the frame on its
// end-of-frame cell.
func (r *Reassembler) add(p []byte, eof bool) (payload []byte, done bool, err error) {
	if !r.active {
		r.buf = r.buf[:0]
		r.active = true
	}
	if len(r.buf) >= maxReassembly {
		return r.drop(ErrTooLong)
	}
	r.buf = append(r.buf, p...)
	if eof {
		return r.finish()
	}
	return nil, false, nil
}

// finish verifies the assembled CPCS-PDU — CRC-32, length, pad fits the
// last cell — and returns its payload.
func (r *Reassembler) finish() (payload []byte, done bool, err error) {
	pdu := r.buf
	tr := pdu[len(pdu)-trailerSize:]
	n := int(binary.BigEndian.Uint16(tr[2:]))
	if aal5crc32(pdu[:len(pdu)-4]) != binary.BigEndian.Uint32(tr[4:]) {
		return r.drop(ErrCRC)
	}
	// Pad must fit within the final cell (otherwise the sender mis-framed).
	if n > len(pdu)-trailerSize || len(pdu)-(n+trailerSize) >= PayloadSize {
		return r.drop(ErrLength)
	}
	r.active = false
	return pdu[:n], true, nil
}

// drop discards the frame under assembly.
func (r *Reassembler) drop(err error) ([]byte, bool, error) {
	r.active = false
	r.dropped++
	return nil, false, err
}

// Reassemble is a convenience that reassembles a complete, ordered cell
// slice into one payload.
func Reassemble(vc VC, cells []Cell) ([]byte, error) {
	r := NewReassembler(vc)
	for i, c := range cells {
		payload, done, err := r.Push(c)
		if err != nil {
			return nil, err
		}
		if done {
			if i != len(cells)-1 {
				return nil, fmt.Errorf("atm: frame ended at cell %d of %d", i, len(cells))
			}
			return payload, nil
		}
	}
	return nil, ErrNoFrame
}
