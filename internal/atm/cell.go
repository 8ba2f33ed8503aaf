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

	"repro/internal/budget"
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

// VCFor returns the conventional VC for traffic from host src to host dst,
// the one numbering every fabric shares: VPI 0, VCI = 64 + src*256 + dst.
// VCI space is 16 bits, so up to 255 hosts are addressable — far beyond the
// paper's 8.
func VCFor(src, dst int) VC { return VCForChan(src, dst, 0) }

// VCForChan returns the VC carrying NCS channel ch from src to dst: the
// channel ID becomes the VPI over the same VCI mesh, so every channel of a
// host pair rides its own virtual circuit (the paper's one-QoS-per-VC
// model, §4). Channel 0 is VCFor — the default channel rides the
// pre-provisioned mesh.
func VCForChan(src, dst int, ch uint16) VC {
	return VC{VPI: uint8(ch), VCI: uint16(64 + src*256 + dst)}
}

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
// the caller's message), so no contiguous PDU buffer is ever materialized.
// The walker only places octets; the CRC is a running accumulator the
// caller advances as it lays the cells — the adapter's "special hardware
// for AAL CRC" computes it as the cells stream out — so no payload octet is
// read twice.
type pdu struct {
	runs  [][]byte
	n     int // payload octets: the trailer's Length field
	cells int // cells in the PDU

	// The walker's position: the next payload octet, as (run, offset).
	run, off int
}

func newPDU(runs ...[]byte) (pdu, error) {
	p := pdu{runs: runs}
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
// cells fill lays.
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

// fill writes the PayloadSize octets of the next cell into dst: the cell's
// stretch of payload, drawn from as many runs as it spans, then zeros, and
// — in the last cell — the trailer's Length; UU and CPI stay zero, and the
// CRC field is left to segmentCells, which folds the cell up to it. The
// last cell is the first one the payload leaves room for a trailer in (the
// pad is shorter than a cell); fill reports whether this was it.
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
	budget.Add(budget.SendCopied, n)
	clear(dst[n:])
	if n > PayloadSize-trailerSize {
		return false
	}
	binary.BigEndian.PutUint16(dst[PayloadSize-6:], uint16(p.n))
	return true
}

// AppendCells builds the AAL5 CPCS-PDU for payload and appends its cells
// on vc, in their 53-octet wire form, onto dst: the last cell carries the
// end-of-frame PT indication, and an empty payload is legal (a pure-pad
// PDU). A frame's cells laid end to end are the shape both fabrics carry —
// a UDP datagram, the adapter model's cells — with no Cell value built.
// dst grows at most once, to the frame's full length. It is the one-run
// view of AppendCellRuns.
func AppendCells(dst []byte, vc VC, payload []byte) ([]byte, error) {
	return AppendCellRuns(dst, vc, payload)
}

// AppendCellRuns is AppendCells for a payload given as consecutive runs: the
// cells are those of the runs' concatenation, which is never built. A sender
// that frames a message (a header it just encoded, then bytes it was handed)
// serializes straight from where the pieces lie. The runs are only read.
// It computes the VC's two headers on every call; a sender that keeps a VC
// keeps a Segmenter, which computes them once.
func AppendCellRuns(dst []byte, vc VC, runs ...[]byte) ([]byte, error) {
	s := NewSegmenter(vc)
	return s.AppendCellRuns(dst, runs...)
}

// Segmenter lays AAL5 frames onto one VC. It holds the VC's two wire
// headers — the one every cell of a frame carries but the last, and the
// end-of-frame one — computed, HEC included, once.
type Segmenter struct {
	hdrs cellHeaders
}

// NewSegmenter returns the segmenter for vc.
func NewSegmenter(vc VC) Segmenter { return Segmenter{hdrs: headersOf(vc)} }

// headersOf computes vc's two wire headers: GFC 0, CLP 0, PT 0 and the
// AAL5 end-of-frame PT.
func headersOf(vc VC) (h cellHeaders) {
	for eof := range h {
		// A VC's fields always fit, and PT is 0 or 1: wire cannot fail.
		h[eof], _ = Header{VPI: vc.VPI, VCI: vc.VCI, PT: uint8(eof)}.wire()
	}
	return h
}

// AppendCellRuns is the package function AppendCellRuns on s's VC.
func (s *Segmenter) AppendCellRuns(dst []byte, runs ...[]byte) ([]byte, error) {
	p, err := newPDU(runs...)
	if err != nil {
		return nil, err
	}
	// Each call to segmentCells takes the cells wholly inside one run, then
	// the cell fill lays after them — one that straddles into the next run,
	// or the frame's last — and stores every header as it goes. A frame
	// cut as udpatm cuts one (chunk header, message header, body) is three
	// calls: two straddling cells, then the body's cells with the last.
	dst = slices.Grow(dst, p.cells*CellSize)
	acc := accOf(^uint32(0))
	for last := false; !last; {
		at := len(dst)
		span, k := p.whole()
		dst = dst[:at+(k+1)*CellSize]
		last = p.fill(dst[at+k*CellSize+HeaderSize:])
		segmentCells(&acc, dst[at:], span, k, &s.hdrs, last)
	}
	return dst, nil
}

// copyPayload moves one cell payload, src[:PayloadSize] to dst[:PayloadSize],
// with no call. Go compiles a [PayloadSize]byte assignment, or a copy of a
// constant PayloadSize octets, to a runtime.memmove call; it keeps an
// array move inline only up to 16 octets on amd64 and 8 on 386 and arm64.
// So the payload moves as six 8-octet words: inline on all three, and on
// amd64 level with three 16-octet vector moves. The portable path of
// segmentCells and reassembleCells makes one per payload it moves.
func copyPayload(dst, src []byte) {
	d, s := (*[PayloadSize]byte)(dst), (*[PayloadSize]byte)(src)
	*(*[8]byte)(d[0:]) = *(*[8]byte)(s[0:])
	*(*[8]byte)(d[8:]) = *(*[8]byte)(s[8:])
	*(*[8]byte)(d[16:]) = *(*[8]byte)(s[16:])
	*(*[8]byte)(d[24:]) = *(*[8]byte)(s[24:])
	*(*[8]byte)(d[32:]) = *(*[8]byte)(s[32:])
	*(*[8]byte)(d[40:]) = *(*[8]byte)(s[40:])
}

// CellCount returns how many cells AppendCells lays for a payload of n
// octets; useful for link-time modelling.
func CellCount(n int) int {
	return (n + trailerSize + PayloadSize - 1) / PayloadSize
}

// Reassembler rebuilds CPCS-PDUs from the cell stream of one VC. Cells from
// different VCs must go to different Reassemblers (the per-VC state the
// SBA-200's i960 keeps).
//
// Cells enter in wire form, a run at a time (PushWire: the path udpatm and
// the adapter model take), or decoded (Push); both feed the same frame and
// the same finish, so every frame gets the same checks whichever way its
// cells arrived, and the two may be mixed on one Reassembler.
type Reassembler struct {
	vc      VC
	buf     []byte
	active  bool
	dropped int

	// acc is the frame's CRC over buf[:folded], the part PushWire's kernel
	// folded as it moved it in; cells that came by Push wait past folded
	// for the next kernel call or for finish. Both reset when a frame
	// opens.
	acc    crcAcc
	folded int

	// hdrs are the wire headers known good on this VC, [0] for a cell
	// inside a frame and [1] for an end-of-frame cell: at first the VC's
	// own two, then whichever header of each kind last passed the HEC and
	// VC checks. A header byte-identical to one of them is known good —
	// the one shortcut the receive path takes, and it covers every cell of
	// a frame, so a frame costs no HEC computation.
	hdrs cellHeaders
}

// NewReassembler returns a reassembler for the given VC.
func NewReassembler(vc VC) *Reassembler {
	return &Reassembler{vc: vc, hdrs: headersOf(vc)}
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
	r.open()
	if len(r.buf) >= maxReassembly {
		return r.drop(ErrTooLong)
	}
	r.buf = append(r.buf, c.Payload[:]...)
	budget.Add(budget.RecvCopied, PayloadSize)
	if c.Header.EndOfFrame() {
		return r.finish(foldRun(&r.acc, r.buf[r.folded:]))
	}
	return nil, false, nil
}

// PushWire is Push for cells still in wire form: it consumes 53-octet cells
// from the front of src — a datagram's cell train, say — until one
// completes a frame, one is rejected, or fewer than CellSize octets remain,
// and returns the octets consumed. Each header is verified exactly as
// DecodeCell would (a header byte-identical to one this reassembler knows
// good is good; anything else goes through HEC) and each payload is
// appended straight from src, with no Cell value built. A frame's cells
// repeat one header up to its end-of-frame cell, which carries the other,
// so run takes a whole frame in one kernel pass: header compares, the
// payloads' move and the CRC, checked once against the AAL5 residue.
//
// A cell with a corrupt header is consumed and reported as ErrHEC; frame
// errors (ErrCRC, ErrLength, ErrTooLong) are reported on the cell that
// raised them, as from Push. A cell for another VC is not consumed: n stops
// short of it and err is ErrVC, so the caller can hand src[n:] to that VC's
// reassembler. After any return the caller continues with src[n:].
func (r *Reassembler) PushWire(src []byte) (n int, payload []byte, done bool, err error) {
	for len(src)-n >= CellSize {
		cell := src[n : n+CellSize]
		if h := [HeaderSize]byte(cell); h != r.hdrs[0] && h != r.hdrs[1] {
			if err = r.verify(cell); err != nil {
				if err != ErrVC {
					n += CellSize
				}
				return n, nil, false, err
			}
		}
		r.open()
		if len(r.buf) >= maxReassembly {
			payload, done, err = r.drop(ErrTooLong)
			return n + CellSize, payload, done, err
		}
		k, crc, eof := r.run(src[n:])
		if n += k * CellSize; eof {
			payload, done, err = r.finish(crc)
			return n, payload, done, err
		}
	}
	return n, nil, false, nil
}

// run is PushWire's kernel pass. PushWire calls it on an open frame with
// room for a cell, and with src's first cell carrying one of r.hdrs, so it
// takes at least that cell: reassembleCells takes the cells carrying
// hdrs[0], as many as keep the frame short of maxReassembly, and the
// end-of-frame cell after them if it carries hdrs[1], after folding what
// Push left pending. It returns the cells taken and, with eof, the register
// over the whole frame. The first cell with another header is left to
// PushWire, as is the cell the bound refuses. The buffer grows as append
// grows it, a call per growth, so a buffer that has held a VC's frames
// takes the next in one call.
func (r *Reassembler) run(src []byte) (k int, crc uint32, eof bool) {
	if len(r.buf) > r.folded {
		foldRun(&r.acc, r.buf[r.folded:])
	}
	n := min(len(src)/CellSize, (maxReassembly-len(r.buf))/PayloadSize)
	for {
		if cap(r.buf)-len(r.buf) < PayloadSize {
			r.buf = slices.Grow(r.buf, PayloadSize)
		}
		at := len(r.buf)
		m := min(n-k, (cap(r.buf)-at)/PayloadSize)
		j, c, e := reassembleCells(&r.acc, r.buf[at:cap(r.buf)], src[k*CellSize:], m, &r.hdrs)
		r.buf = r.buf[:at+j*PayloadSize]
		r.folded = len(r.buf)
		if k += j; e || j < m || k == n {
			return k, c, e
		}
	}
}

// verify checks the wire header at the front of cell — HEC, then VC — and
// makes it the known header of its kind.
func (r *Reassembler) verify(cell []byte) error {
	var h Header
	if err := h.decode(cell); err != nil {
		return err
	}
	if h.VC() != r.vc {
		return ErrVC
	}
	r.hdrs[h.PT&ptAAL5End] = [HeaderSize]byte(cell)
	return nil
}

// open starts a frame unless one is under assembly.
func (r *Reassembler) open() {
	if !r.active {
		r.buf = r.buf[:0]
		r.active = true
		r.acc, r.folded = accOf(^uint32(0)), 0
	}
}

// finish verifies the assembled CPCS-PDU — its register over every octet,
// CRC field included, must be the AAL5 residue; the length must fit, with
// the pad inside the last cell — and returns its payload.
func (r *Reassembler) finish(crc uint32) (payload []byte, done bool, err error) {
	pdu := r.buf
	if crc != aal5Residue {
		return r.drop(ErrCRC)
	}
	n := int(binary.BigEndian.Uint16(pdu[len(pdu)-6:]))
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
