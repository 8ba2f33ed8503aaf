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

// pdu is the geometry of one CPCS-PDU — payload ++ pad zeros ++ trailer,
// a whole number of cell payloads — and the one walker that lays it into
// cells. The payload is given as runs, consecutive pieces that need not be
// contiguous in memory (a chunk header built on the stack, then a slice of
// the caller's message), and the CRC is a running register the walker
// advances over each cell as it lays it — the adapter's "special hardware
// for AAL CRC" computes it as the cells stream out — so no payload octet is
// read twice and no contiguous PDU buffer is ever materialized.
type pdu struct {
	runs  [][]byte
	n     int    // payload octets: the trailer's Length field
	cells int    // cells in the PDU
	crc   uint32 // raw CRC register over the octets laid so far

	// The walker's position: the next payload octet, as (run, offset).
	run, off int
}

func newPDU(runs ...[]byte) (pdu, error) {
	p := pdu{runs: runs, crc: ^uint32(0)}
	for _, r := range runs {
		p.n += len(r)
	}
	if p.n > MaxPDU {
		return p, ErrTooLong
	}
	p.cells = CellCount(p.n)
	return p, nil
}

// whole returns the next cells' payload when they lie wholly inside the
// current run — every cell of a long run but the one that straddles into
// the next — as one span of k cells, and steps past it. Such a cell is
// never the last, since payload precedes pad and trailer. k is 0 for the
// cells fill lays. The span is not yet in the CRC: the caller folds it as
// it lays it.
func (p *pdu) whole() (span []byte, k int) {
	for p.run < len(p.runs) && p.off == len(p.runs[p.run]) {
		p.run, p.off = p.run+1, 0
	}
	if p.run == len(p.runs) {
		return nil, 0
	}
	r := p.runs[p.run][p.off:]
	k = len(r) / PayloadSize
	p.off += k * PayloadSize
	return r[:k*PayloadSize], k
}

// fill writes the PayloadSize octets of the next cell into dst and folds
// them into the CRC: the cell's stretch of payload, drawn from as many runs
// as it spans, then zeros, and — in the last cell — the trailer, folded up
// to its CRC field, which then takes the complemented register. The last
// cell is the first one the payload leaves room for a trailer in (the pad
// is shorter than a cell); fill reports whether this was it.
func (p *pdu) fill(dst []byte) (last bool) {
	dst = dst[:PayloadSize]
	n := 0
	for p.run < len(p.runs) {
		c := copy(dst[n:], p.runs[p.run][p.off:])
		if n += c; n == PayloadSize {
			p.off += c
			break
		}
		p.run, p.off = p.run+1, 0
	}
	clear(dst[n:])
	if n > PayloadSize-trailerSize {
		p.crc = foldCells(p.crc, dst)
		return false
	}
	// UU and CPI stay zero.
	binary.BigEndian.PutUint16(dst[PayloadSize-6:], uint16(p.n))
	p.crc = crcTable(p.crc, dst[:PayloadSize-4])
	binary.BigEndian.PutUint32(dst[PayloadSize-4:], ^p.crc)
	return true
}

// SegmentInto builds the AAL5 CPCS-PDU for payload and appends its cells on
// the given VC to cells, returning the extended slice. The last cell
// carries the end-of-frame PT indication. An empty payload is legal
// (pure-pad PDU). Passing a scratch slice (cells[:0]) makes segmentation
// allocation-free once the slice has grown to the working set. The cells
// inside one run take one crcUpdate over their span, then a copyPayload
// each: two passes where AppendCellRuns makes one, kept on this
// decoded-cell path (the adapter model, atmtrace) because a Cell is a Go
// struct, not wire octets at a byte stride.
func SegmentInto(cells []Cell, vc VC, payload []byte) ([]Cell, error) {
	p, err := newPDU(payload)
	if err != nil {
		return nil, err
	}
	cells = slices.Grow(cells, p.cells)
	h := Header{VPI: vc.VPI, VCI: vc.VCI}
	for last := false; !last; {
		if s, k := p.whole(); k > 0 {
			p.crc = crcUpdate(p.crc, s)
			for ; k > 0; k-- {
				cells = append(cells, Cell{Header: h})
				copyPayload(cells[len(cells)-1].Payload[:], s)
				s = s[PayloadSize:]
			}
			continue
		}
		cells = append(cells, Cell{Header: h})
		c := &cells[len(cells)-1]
		if last = p.fill(c.Payload[:]); last {
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
	// end-of-frame cell. The cells inside one run are laid as a batch: one
	// crcMoveCells call that moves and folds their payloads, then a fixed
	// 5-octet header store per cell. The stores come second because the
	// move has by then brought the cells' lines into cache; made first,
	// into a train buffer not touched lately, each paid a miss of its own.
	// fill lays and folds the rest.
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
		if s, k := p.whole(); k > 0 {
			dst = dst[:at+k*CellSize]
			p.crc = crcMoveCells(p.crc, dst[at+HeaderSize:], s, CellSize, PayloadSize, k)
			for c := at; c < len(dst); c += CellSize {
				*(*[HeaderSize]byte)(dst[c:]) = hdr
			}
			continue
		}
		dst = dst[:at+CellSize]
		if last = p.fill(dst[at+HeaderSize:]); last {
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
// amd64 level with three 16-octet vector moves. SegmentInto makes one per
// cell of a run, and crcMoveThenUpdate one per payload it moves.
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

	// crc is the raw CRC register over buf[:folded], the part of the frame
	// under assembly that run has already folded as it moved it in; finish
	// folds the rest. Both reset when add opens a frame.
	crc    uint32
	folded int

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
// run): a 5-octet compare per cell, then one call that moves the run's
// payloads and folds them into the frame's CRC.
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
// add; run counts them, as many as keep the frame short of maxReassembly,
// and takes them in one crcMoveCells call that moves their payloads into
// the buffer and folds them on the way, after folding the part of the frame
// still pending (its first cell, and any that came by Push). It returns the
// octets consumed. The first cell with another header is left to verify
// and add, as is the cell the bound refuses. The buffer grows as append
// grows it, once per run.
func (r *Reassembler) run(src []byte) (n int) {
	hdr := r.verified
	k, room := 0, (maxReassembly-len(r.buf))/PayloadSize
	for ; k < room && len(src)-n >= CellSize && [HeaderSize]byte(src[n:]) == hdr; k++ {
		n += CellSize
	}
	if k == 0 {
		return 0
	}
	r.crc = foldCells(r.crc, r.buf[r.folded:])
	buf := slices.Grow(r.buf, k*PayloadSize)
	at := len(buf)
	buf = buf[:at+k*PayloadSize]
	r.crc = crcMoveCells(r.crc, buf[at:], src[HeaderSize:], PayloadSize, CellSize, k)
	r.buf, r.folded = buf, len(buf)
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
		r.crc, r.folded = ^uint32(0), 0
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
// last cell — and returns its payload. The CRC register already covers
// buf[:folded]; finish folds the rest up to the CRC field: on PushWire's
// path the end-of-frame cell (and, in a frame too short for a run, its
// first), for a frame that came by Push all of it.
func (r *Reassembler) finish() (payload []byte, done bool, err error) {
	pdu := r.buf
	tr := pdu[len(pdu)-trailerSize:]
	n := int(binary.BigEndian.Uint16(tr[2:]))
	if ^crcUpdate(r.crc, pdu[r.folded:len(pdu)-4]) != binary.BigEndian.Uint32(tr[4:]) {
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
