package atm

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// patterned returns n deterministic, non-repeating-per-cell octets.
func patterned(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*131 + i>>8 + 7)
	}
	return p
}

// TestAppendCellsGolden pins the cells on the wire: SHA-256 of AppendCells'
// output for patterned payloads on VC 3/777, recorded from the bytewise
// implementation this package started with. Sizes straddle every pad and
// trailer placement (trailer alone in a cell at 41..48) and both extremes.
func TestAppendCellsGolden(t *testing.T) {
	golden := []struct {
		size, wire int
		sum        string
	}{
		{0, 53, "b0b1751f2d16b3bb5ac0bd97e723d926bfe9d9816ad1cc7aa80bb936e8a2bbc9"},
		{1, 53, "fff007d11063d364a1e8bb103357bcd769fd6c5f399d29bb73e02ac982c92094"},
		{39, 53, "b6befac478833ed90182d9dbef9ca9a33338c94ea4c0d1ad39f5ce4a73dd471b"},
		{40, 53, "fc606ca363e5c7dc808791f2a350b402a647fd80e91388771279f0ff337b1ce0"},
		{41, 106, "ca9578b0e5dd8377caa3501ca3634984b70d5e6bf6016539fd0ebcb8277651a9"},
		{48, 106, "91865d8dba6e2fec7610c7d954babe958923c18e63fd3ad15bc0e17f15469700"},
		{8184, 9063, "b704c6e17cb3ffa6ad8bcf371d376f56abd8097d78eff044e671d67879a5c7ea"},
		{65535, 72398, "60f9e63983ea8b0a159b0cb48a32875325b770c0b3ae0f339730a4461954347b"},
	}
	vc := VC{VPI: 3, VCI: 777}
	for _, g := range golden {
		// A dirty, too-small dst: the walker must overwrite every octet it
		// claims (pad zeros included) and leave the prefix alone.
		dst := bytes.Repeat([]byte{0xEE}, 16)[:3]
		out, err := AppendCells(dst, vc, patterned(g.size))
		if err != nil {
			t.Fatalf("size %d: %v", g.size, err)
		}
		if !bytes.Equal(out[:3], []byte{0xEE, 0xEE, 0xEE}) {
			t.Fatalf("size %d: dst prefix clobbered", g.size)
		}
		out = out[3:]
		sum := sha256.Sum256(out)
		if len(out) != g.wire || hex.EncodeToString(sum[:]) != g.sum {
			t.Fatalf("size %d: %d wire octets, sha256 %x; golden %d, %s", g.size, len(out), sum, g.wire, g.sum)
		}
	}
}

// appendCellsBytewise is the original AppendCells: the logical PDU
// (payload ++ pad ++ trailer) indexed one octet at a time, CRC from the
// bit-serial reference. The shipped walker is held to it on every size.
func appendCellsBytewise(vc VC, payload []byte) []byte {
	pad := (PayloadSize - (len(payload)+trailerSize)%PayloadSize) % PayloadSize
	pdu := append(append([]byte{}, payload...), make([]byte, pad+trailerSize)...)
	binary.BigEndian.PutUint16(pdu[len(pdu)-6:], uint16(len(payload)))
	binary.BigEndian.PutUint32(pdu[len(pdu)-4:], crcBitSerial(pdu[:len(pdu)-4]))
	var out []byte
	for off := 0; off < len(pdu); off += PayloadSize {
		c := Cell{Header: Header{VPI: vc.VPI, VCI: vc.VCI}}
		if off+PayloadSize == len(pdu) {
			c.Header.PT = ptAAL5End
		}
		for j := range c.Payload {
			c.Payload[j] = pdu[off+j]
		}
		out = append(out, c.Bytes()...)
	}
	return out
}

func TestAppendCellsMatchesBytewise(t *testing.T) {
	vc := VC{VPI: 200, VCI: 40000}
	sizes := []int{1000, 4096, 8184, 8192, 65534, 65535}
	for n := 0; n <= 200; n++ {
		sizes = append(sizes, n)
	}
	var dst []byte
	for _, n := range sizes {
		p := patterned(n)
		var err error
		if dst, err = AppendCells(dst[:0], vc, p); err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		if !bytes.Equal(dst, appendCellsBytewise(vc, p)) {
			t.Fatalf("size %d: AppendCells differs from the bytewise reference", n)
		}
	}
}

// wireEvent is one observable outcome of feeding cells to a Reassembler.
type wireEvent struct {
	cell    int // index of the cell that raised it
	payload string
	err     error // one of the package's sentinels, nil for a frame
}

// viaPush feeds src cell by cell through DecodeCell + Push — the path
// PushWire replaces on the receive side and must stay indistinguishable
// from. A trailing fragment shorter than a cell is ignored, as PushWire
// leaves it unconsumed.
func viaPush(r *Reassembler, src []byte) (evs []wireEvent) {
	for i := 0; (i+1)*CellSize <= len(src); i++ {
		c, err := DecodeCell(src[i*CellSize : (i+1)*CellSize])
		if err != nil {
			evs = append(evs, wireEvent{cell: i, err: err})
			continue
		}
		p, done, err := r.Push(c)
		switch {
		case errors.Is(err, ErrVC):
			evs = append(evs, wireEvent{cell: i, err: ErrVC})
		case err != nil:
			evs = append(evs, wireEvent{cell: i, err: err})
		case done:
			evs = append(evs, wireEvent{cell: i, payload: string(p)})
		}
	}
	return evs
}

// viaPushWire feeds src through PushWire the way a receiver does: continue
// with src[n:] after every return, stepping over a foreign-VC cell.
func viaPushWire(t testing.TB, r *Reassembler, src []byte) (evs []wireEvent) {
	return viaLentPushWire(t, r, src, -1)
}

// lentPrefix is what a lent buffer holds before the place a frame opens
// at: octets the frame must never touch.
var lentPrefix = []byte("caller's octets")

// viaLentPushWire is viaPushWire lending, before every call, a place with
// room octets of spare capacity past lentPrefix, as udpatm lends the
// spot in its message frame; room < 0 lends none. A lend is refused while a
// frame is open, and a frame that outgrows its room finishes in the
// reassembler's own buffer, so the events must be exactly viaPushWire's.
func viaLentPushWire(t testing.TB, r *Reassembler, src []byte, room int) (evs []wireEvent) {
	var place []byte
	if room >= 0 {
		place = append(make([]byte, 0, len(lentPrefix)+room), lentPrefix...)
	}
	off := 0
	for len(src)-off >= CellSize {
		if room >= 0 && !r.active {
			if !r.Lend(place) {
				t.Fatal("Lend refused between frames")
			}
		} else if room >= 0 && r.Lend(nil) {
			t.Fatal("Lend took effect on an open frame")
		}
		n, p, done, err := r.PushWire(src[off:])
		if place != nil && !bytes.Equal(place, lentPrefix) {
			t.Fatalf("a lent frame wrote over the %d octets before its place", len(place))
		}
		if n%CellSize != 0 || n > len(src)-off {
			t.Fatalf("PushWire consumed %d of %d octets", n, len(src)-off)
		}
		off += n
		switch {
		case err == ErrVC:
			evs = append(evs, wireEvent{cell: off / CellSize, err: ErrVC})
			off += CellSize
		case err != nil:
			evs = append(evs, wireEvent{cell: off/CellSize - 1, err: err})
		case done:
			evs = append(evs, wireEvent{cell: off/CellSize - 1, payload: string(p)})
		case n == 0:
			t.Fatal("PushWire made no progress")
		}
		if r.Buffered() > maxReassembly {
			t.Fatalf("reassembly buffer holds %d octets, cap is %d", r.Buffered(), maxReassembly)
		}
	}
	return evs
}

// checkWireEquivalence asserts PushWire and DecodeCell+Push agree on src:
// same frames, same errors on the same cells, same Dropped().
func checkWireEquivalence(t testing.TB, vc VC, src []byte) []wireEvent {
	t.Helper()
	rp, rw := NewReassembler(vc), NewReassembler(vc)
	want, got := viaPush(rp, src), viaPushWire(t, rw, src)
	if !slices.Equal(got, want) {
		t.Fatalf("PushWire saw %+v\nDecodeCell+Push saw %+v", got, want)
	}
	if rp.Dropped() != rw.Dropped() {
		t.Fatalf("Dropped: PushWire %d, Push %d", rw.Dropped(), rp.Dropped())
	}
	// Lent places with no room, with room for 5 cells and a half, and with
	// room for any frame in src.
	for _, room := range []int{0, 5*PayloadSize + 24, len(src)} {
		rl := NewReassembler(vc)
		if lent := viaLentPushWire(t, rl, src, room); !slices.Equal(lent, want) {
			t.Fatalf("PushWire with %d octets lent saw %+v\nDecodeCell+Push saw %+v", room, lent, want)
		}
		if rl.Dropped() != rp.Dropped() {
			t.Fatalf("Dropped: PushWire with %d octets lent %d, Push %d", room, rl.Dropped(), rp.Dropped())
		}
	}
	return got
}

// wireSeeds are cell trains covering the receive path's cases; the tests
// below assert each one's outcome and FuzzPushWire mutates from them.
func wireSeeds() map[string][]byte {
	vc, other := VC{VCI: 100}, VC{VPI: 1, VCI: 100}
	cells := func(vc VC, payload string) []byte {
		out, err := AppendCells(nil, vc, []byte(payload))
		if err != nil {
			panic(err)
		}
		return out
	}
	long := string(patterned(200)) // 5 cells
	seeds := map[string][]byte{
		"one-frame":  cells(vc, "hello"),
		"two-frames": append(cells(vc, long), cells(vc, "second")...),
		"empty":      cells(vc, ""),
		"foreign":    append(append(cells(vc, "mine"), cells(other, "theirs")...), cells(vc, "mine too")...),
		"mid-frame":  cells(vc, long)[:3*CellSize],
		"ragged":     append(cells(vc, "whole"), cells(vc, long)[:CellSize+17]...),
	}
	badHEC := cells(vc, long)
	badHEC[2*CellSize+4] ^= 0x10 // third cell's HEC octet
	seeds["bad-hec"] = append(badHEC, cells(vc, "after")...)
	badVCI := cells(vc, long)
	badVCI[CellSize+2] ^= 0x01 // second cell's VCI, HEC left stale
	seeds["bad-header-bit"] = badVCI
	badCRC := cells(vc, long)
	badCRC[CellSize+20] ^= 0x80 // second cell's payload
	seeds["bad-crc"] = append(badCRC, cells(vc, "after")...)
	eofFirst := cells(vc, long)
	seeds["eof-first"] = append(eofFirst[4*CellSize:], cells(vc, "after")...)

	// Long runs (21 cells) broken at their middle cell: by a header that is
	// new but good (only GFC, or only CLP, changed and the HEC recomputed),
	// by a cell of another VC, and by the datagram's end.
	run := string(patterned(1000))
	gfc := cells(vc, run)
	setHeader(gfc[10*CellSize:], func(h *Header) { h.GFC = 0x5 })
	seeds["run-gfc"] = gfc
	clp := cells(vc, run)
	setHeader(clp[10*CellSize:], func(h *Header) { h.CLP = true })
	seeds["run-clp"] = clp
	mine := cells(vc, run)
	foreign := append(append([]byte{}, mine[:10*CellSize]...), cells(other, long)[:CellSize]...)
	seeds["run-foreign"] = append(foreign, mine[10*CellSize:]...)
	seeds["run-cut"] = cells(vc, run)[:15*CellSize+30]
	return seeds
}

// setHeader rewrites the wire header at the front of cell through edit,
// HEC recomputed, so the header is changed but good.
func setHeader(cell []byte, edit func(*Header)) {
	h, err := DecodeHeader(cell)
	if err != nil {
		panic(err)
	}
	edit(&h)
	w, err := h.wire()
	if err != nil {
		panic(err)
	}
	copy(cell, w[:])
}

func TestPushWireCases(t *testing.T) { onPaths(t, testPushWireCases) }

func testPushWireCases(t *testing.T) {
	vc := VC{VCI: 100}
	long, run := string(patterned(200)), string(patterned(1000))
	want := map[string][]wireEvent{
		"one-frame":  {{cell: 0, payload: "hello"}},
		"two-frames": {{cell: 4, payload: long}, {cell: 5, payload: "second"}},
		"empty":      {{cell: 0, payload: ""}},
		"foreign":    {{cell: 0, payload: "mine"}, {cell: 1, err: ErrVC}, {cell: 2, payload: "mine too"}},
		"mid-frame":  nil,
		"ragged":     {{cell: 0, payload: "whole"}},
		// The cell with the corrupt header is discarded; its frame then
		// fails CRC on the end-of-frame cell and only that frame is lost.
		"bad-hec":        {{cell: 2, err: ErrHEC}, {cell: 4, err: ErrCRC}, {cell: 5, payload: "after"}},
		"bad-header-bit": {{cell: 1, err: ErrHEC}, {cell: 4, err: ErrCRC}},
		"bad-crc":        {{cell: 4, err: ErrCRC}, {cell: 5, payload: "after"}},
		"eof-first":      {{cell: 0, err: ErrCRC}, {cell: 1, payload: "after"}},
		"run-gfc":        {{cell: 20, payload: run}},
		"run-clp":        {{cell: 20, payload: run}},
		"run-foreign":    {{cell: 10, err: ErrVC}, {cell: 21, payload: run}},
		"run-cut":        nil,
	}
	seeds := wireSeeds()
	if len(seeds) != len(want) {
		t.Fatalf("%d seeds, %d expectations", len(seeds), len(want))
	}
	for name, src := range seeds {
		if got := checkWireEquivalence(t, vc, src); !slices.Equal(got, want[name]) {
			t.Errorf("%s: got %+v, want %+v", name, got, want[name])
		}
	}
}

// TestPushWireHeaderIdentityRule: the only headers PushWire accepts without
// a HEC computation are byte-identical to one it knows good — the VC's own
// two, or the last of each kind it verified — and a header that failed
// verification never becomes one.
func TestPushWireHeaderIdentityRule(t *testing.T) { onPaths(t, testPushWireHeaderIdentityRule) }

func testPushWireHeaderIdentityRule(t *testing.T) {
	vc := VC{VCI: 100}
	frame, _ := AppendCells(nil, vc, patterned(200)) // 5 cells

	// A corrupt header repeated back to back is rejected every time.
	bad := append([]byte{}, frame[:CellSize]...)
	bad[4] ^= 0xFF
	r := NewReassembler(vc)
	for i := 0; i < 3; i++ {
		if n, _, _, err := r.PushWire(bad); err != ErrHEC || n != CellSize {
			t.Fatalf("corrupt header, try %d: n=%d err=%v, want %d, ErrHEC", i, n, err, CellSize)
		}
	}
	// ...and so is the all-zero cell, whose header equals a fresh
	// reassembler's zero state but carries the wrong HEC for VC 0/0.
	if _, _, _, err := NewReassembler(VC{}).PushWire(make([]byte, CellSize)); err != ErrHEC {
		t.Fatalf("all-zero cell on a fresh reassembler: err=%v, want ErrHEC", err)
	}

	// A valid header that differs from the verified one (CLP set, HEC
	// recomputed) goes through HEC and is accepted; the frame completes.
	clp := append([]byte{}, frame...)
	clp[2*CellSize+3] |= 1
	clp[2*CellSize+4] = HEC([4]byte(clp[2*CellSize:]))
	r = NewReassembler(vc)
	if n, p, done, err := r.PushWire(clp); err != nil || !done || n != len(clp) || !bytes.Equal(p, patterned(200)) {
		t.Fatalf("frame with a CLP-marked cell: n=%d done=%v err=%v", n, done, err)
	}
	// Another VC's header is foreign even when it is the one just seen.
	foreign, _ := AppendCells(nil, VC{VCI: 101}, patterned(200))
	for i := 0; i < 2; i++ {
		if n, _, _, err := r.PushWire(foreign); err != ErrVC || n != 0 {
			t.Fatalf("foreign VC, try %d: n=%d err=%v, want 0, ErrVC", i, n, err)
		}
	}

	// Mid-way through a run, a header that differs from the run's in any
	// one of its 40 bits, HEC left stale, is refused: the run takes a
	// header as the one it repeats only if every octet matches.
	long, _ := AppendCells(nil, vc, patterned(1000)) // 21 cells
	for bit := 0; bit < 8*HeaderSize; bit++ {
		src := append([]byte{}, long...)
		src[10*CellSize+bit/8] ^= 0x80 >> (bit % 8)
		if got := checkWireEquivalence(t, vc, src); len(got) == 0 || got[0] != (wireEvent{cell: 10, err: ErrHEC}) {
			t.Fatalf("run cell's header bit %d flipped: %+v, want ErrHEC on cell 10 first", bit, got)
		}
	}
}

// TestPushAndPushWireShareOneFrame: the two entry points feed one core, so
// a frame may arrive partly decoded and partly in wire form — Push cells
// first, or between two PushWire runs, where the run has already folded
// the cells before them into the CRC and must fold the Push cells before
// its own. A bit flipped in any one of the frame's payloads, in any cell of
// any stretch, still fails the frame.
func TestPushAndPushWireShareOneFrame(t *testing.T) { onPaths(t, testPushAndPushWireShareOneFrame) }

func testPushAndPushWireShareOneFrame(t *testing.T) {
	vc := VC{VCI: 100}
	payload := patterned(1000)
	frame, _ := AppendCells(nil, vc, payload) // 21 cells
	// Each schedule alternates PushWire and Push stretches, given as the
	// cell index each stretch ends before.
	for _, sched := range []struct {
		name    string
		bounds  []int
		viaPush []bool
	}{
		{"push-then-wire", []int{2, 21}, []bool{true, false}},
		{"wire-push-wire", []int{7, 10, 21}, []bool{false, true, false}},
		{"wire-push-wire-push", []int{3, 4, 12, 21}, []bool{false, true, false, true}},
	} {
		feed := func(frame []byte) (p []byte, done bool, err error) {
			r, from := NewReassembler(vc), 0
			for i, to := range sched.bounds {
				for from < to {
					if sched.viaPush[i] {
						c, derr := DecodeCell(frame[from*CellSize : (from+1)*CellSize])
						if derr != nil {
							t.Fatal(derr)
						}
						p, done, err = r.Push(c)
						from++
					} else {
						var n int
						n, p, done, err = r.PushWire(frame[from*CellSize : to*CellSize])
						from += n / CellSize
					}
					if done || err != nil {
						if from != len(frame)/CellSize {
							t.Fatalf("%s: frame ended at cell %d: done=%v err=%v", sched.name, from-1, done, err)
						}
						return p, done, err
					}
				}
			}
			return nil, false, nil
		}
		if p, done, err := feed(frame); err != nil || !done || !bytes.Equal(p, payload) {
			t.Fatalf("%s: done=%v err=%v", sched.name, done, err)
		}
		for cell := 0; cell < len(frame)/CellSize; cell++ {
			bad := bytes.Clone(frame)
			bad[cell*CellSize+HeaderSize+cell%PayloadSize] ^= 0x04
			if _, done, err := feed(bad); done || err != ErrCRC {
				t.Fatalf("%s: bit flipped in cell %d: done=%v err=%v, want ErrCRC", sched.name, cell, done, err)
			}
		}
	}
}

// TestPushWireDetectsEveryPayloadBitFlip runs the shipped path —
// AppendCellRuns with a frame cut as udpatm cuts one (an 8-octet chunk
// header, a 44-octet message header, then the body), PushWire on the cells
// — and flips each payload bit of each cell in turn, the HEC left valid:
// the first cell, the two that straddle runs, the body's whole cells, the
// body's tail with pad, a cell of pad and trailer, and the trailer's UU,
// CPI, length and CRC octets. Every flip fails the frame with ErrCRC or
// ErrLength; none is delivered. The body sizes put an even and an odd
// number of whole cells in each loop's batch, and the udpatm chunk size.
func TestPushWireDetectsEveryPayloadBitFlip(t *testing.T) {
	onPaths(t, testPushWireDetectsEveryPayloadBitFlip)
}

func testPushWireDetectsEveryPayloadBitFlip(t *testing.T) {
	vc := VC{VCI: 100}
	chunk, head := patterned(8), patterned(44)
	for _, total := range []int{10*PayloadSize + 44, 11*PayloadSize + 44, 8184} {
		body := patterned(total - len(chunk) - len(head))
		frame, err := AppendCellRuns(nil, vc, chunk, head, body)
		if err != nil {
			t.Fatal(err)
		}
		r := NewReassembler(vc)
		if _, p, done, err := r.PushWire(frame); !done || err != nil || len(p) != total {
			t.Fatalf("%d octets unflipped: done=%v err=%v len %d", total, done, err, len(p))
		}
		for cell := 0; cell < len(frame)/CellSize; cell++ {
			for bit := 0; bit < 8*PayloadSize; bit++ {
				at := cell*CellSize + HeaderSize + bit/8
				frame[at] ^= 0x80 >> (bit % 8)
				n, _, done, err := r.PushWire(frame)
				frame[at] ^= 0x80 >> (bit % 8)
				if done || (err != ErrCRC && err != ErrLength) || n != len(frame) {
					t.Fatalf("%d octets, cell %d payload bit %d flipped: n=%d done=%v err=%v, want ErrCRC or ErrLength on the last cell",
						total, cell, bit, n, done, err)
				}
			}
		}
	}
}

// TestReassemblerBoundsFrame: a cell stream with no end-of-frame cell is
// cut off at the longest legal CPCS-PDU — same drop, count and error from
// Push and PushWire — while the longest legal frame still reassembles.
func TestReassemblerBoundsFrame(t *testing.T) { onPaths(t, testReassemblerBoundsFrame) }

func testReassemblerBoundsFrame(t *testing.T) {
	vc := VC{VCI: 100}
	if maxReassembly != CellCount(MaxPDU)*PayloadSize {
		t.Fatalf("maxReassembly = %d, want CellCount(MaxPDU)*PayloadSize = %d", maxReassembly, CellCount(MaxPDU)*PayloadSize)
	}
	body, _ := AppendCells(nil, vc, patterned(100))
	body = body[:CellSize] // one valid non-final cell
	limit := CellCount(MaxPDU)

	rw := NewReassembler(vc)
	endless := bytes.Repeat(body, limit+1)
	n, _, done, err := rw.PushWire(endless)
	if n != len(endless) || done || err != ErrTooLong || rw.Dropped() != 1 {
		t.Fatalf("PushWire: n=%d done=%v err=%v dropped=%d; want all consumed, ErrTooLong, 1", n, done, err, rw.Dropped())
	}
	if cap(rw.buf) >= 2*maxReassembly {
		t.Fatalf("reassembly buffer grew to %d octets", cap(rw.buf))
	}

	rp := NewReassembler(vc)
	c, _ := DecodeCell(body)
	for i := 0; i < limit; i++ {
		if _, done, err := rp.Push(c); done || err != nil {
			t.Fatalf("Push cell %d: done=%v err=%v", i, done, err)
		}
	}
	if _, done, err := rp.Push(c); done || err != ErrTooLong || rp.Dropped() != 1 {
		t.Fatalf("Push cell %d: done=%v err=%v dropped=%d; want ErrTooLong, 1", limit, done, err, rp.Dropped())
	}

	// The rest of the runaway frame cannot pass for a frame of its own: it
	// fails CRC on its end-of-frame cell, and frames flow again after it.
	rest, _ := AppendCells(bytes.Repeat(body, 2), vc, []byte("rest"))
	next, _ := AppendCells(nil, vc, []byte("next"))
	evs := viaPushWire(t, rw, append(rest, next...))
	if want := []wireEvent{{cell: 2, err: ErrCRC}, {cell: 3, payload: "next"}}; !slices.Equal(evs, want) {
		t.Fatalf("after the drop: %+v, want %+v", evs, want)
	}
	if rw.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", rw.Dropped())
	}

	biggest, err := AppendCells(nil, vc, patterned(MaxPDU))
	if err != nil {
		t.Fatal(err)
	}
	if _, p, done, err := rw.PushWire(biggest); err != nil || !done || !bytes.Equal(p, patterned(MaxPDU)) {
		t.Fatalf("MaxPDU frame: done=%v err=%v", done, err)
	}
}

// TestSARZeroAllocs: the shipped datapath — AppendCells into a reused
// buffer, PushWire over the wire cells — allocates nothing once warm.
func TestSARZeroAllocs(t *testing.T) { onPaths(t, testSARZeroAllocs) }

func testSARZeroAllocs(t *testing.T) {
	vc := VC{VCI: 100}
	payload := patterned(8184)
	r := NewReassembler(vc)
	var wire []byte
	run := func() {
		var err error
		if wire, err = AppendCells(wire[:0], vc, payload); err != nil {
			t.Fatal(err)
		}
		if _, _, done, err := r.PushWire(wire); !done || err != nil {
			t.Fatalf("done=%v err=%v", done, err)
		}
	}
	run()
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("segment + reassemble allocates %.2f/frame on warm buffers, want 0", avg)
	}
}

// TestReassemblyBufferGrowth: the run grows the reassembly buffer the way
// append does, never to maxReassembly ahead of need, so a VC
// that has carried one 8,184-octet frame holds about that much and not the
// longest legal PDU.
func TestReassemblyBufferGrowth(t *testing.T) {
	vc := VC{VCI: 100}
	payload := patterned(8184)
	wire, _ := AppendCells(nil, vc, payload)
	r := NewReassembler(vc)
	if _, p, done, err := r.PushWire(wire); !done || err != nil || !bytes.Equal(p, payload) {
		t.Fatalf("done=%v err=%v", done, err)
	}
	if pdu := CellCount(len(payload)) * PayloadSize; cap(r.buf) >= 2*pdu {
		t.Fatalf("reassembly buffer cap %d after one %d-octet PDU, want under %d", cap(r.buf), pdu, 2*pdu)
	}
}

// TestPushWireRandomTrains: random frame sizes up to past a udpatm chunk's
// 171 cells, random corruption, random good headers that differ from their
// frame's (only GFC, only CLP or only one PT bit changed, HEC recomputed),
// random foreign cells — PushWire and DecodeCell+Push never diverge.
func TestPushWireRandomTrains(t *testing.T) { onPaths(t, testPushWireRandomTrains) }

func testPushWireRandomTrains(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	vc := VC{VCI: 100}
	edits := []func(*Header){
		func(h *Header) { h.GFC = uint8(rng.Intn(15)) + 1 },
		func(h *Header) { h.CLP = !h.CLP },
		func(h *Header) { h.PT ^= 1 << rng.Intn(3) },
	}
	for trial := 0; trial < 300; trial++ {
		var train []byte
		for f := rng.Intn(5) + 1; f > 0; f-- {
			on := vc
			if rng.Intn(6) == 0 {
				on = VC{VPI: uint8(rng.Intn(3)), VCI: 100}
			}
			n := rng.Intn(400)
			if rng.Intn(3) == 0 {
				n = rng.Intn(9001)
			}
			train, _ = AppendCells(train, on, patterned(n))
		}
		for k := rng.Intn(3); k > 0; k-- {
			at := rng.Intn(len(train)/CellSize) * CellSize
			setHeader(train[at:], edits[rng.Intn(len(edits))])
		}
		for k := rng.Intn(3); k > 0; k-- {
			train[rng.Intn(len(train))] ^= 1 << rng.Intn(8)
		}
		if rng.Intn(4) == 0 {
			train = train[:rng.Intn(len(train)+1)]
		}
		checkWireEquivalence(t, vc, train)
	}
}

// TestLastCellBitFlips flips, one at a time, every bit of the last cell's
// payload — body tail, pad, UU, CPI, Length, CRC — of frames whose payload
// puts every pad length and every trailer placement in that cell, the HEC
// left valid, and feeds each through PushWire and through DecodeCell+Push.
// Both must refuse it with ErrCRC or ErrLength on the last cell, and
// neither may deliver it.
func TestLastCellBitFlips(t *testing.T) { onPaths(t, testLastCellBitFlips) }

func testLastCellBitFlips(t *testing.T) {
	vc := VC{VCI: 100}
	for size := 0; size <= 3*PayloadSize; size++ {
		frame, err := AppendCells(nil, vc, patterned(size))
		if err != nil {
			t.Fatal(err)
		}
		last := len(frame)/CellSize - 1
		for bit := 0; bit < 8*PayloadSize; bit++ {
			at := last*CellSize + HeaderSize + bit/8
			frame[at] ^= 0x80 >> (bit % 8)
			evs := checkWireEquivalence(t, vc, frame)
			frame[at] ^= 0x80 >> (bit % 8)
			if len(evs) != 1 || evs[0].cell != last || (evs[0].err != ErrCRC && evs[0].err != ErrLength) {
				t.Fatalf("%d octets, last cell payload bit %d flipped: %+v, want ErrCRC or ErrLength on cell %d", size, bit, evs, last)
			}
		}
	}
}

// FuzzPushWire: arbitrary octets never panic PushWire, never grow the
// reassembly buffer past its cap, and yield exactly the frames, errors and
// Dropped() that DecodeCell + Push yield on the same input, on each cell
// path this host runs.
//
// The seed corpus in testdata/fuzz/FuzzPushWire is wireSeeds, one file per
// case, and frames with one bit of the last cell flipped (last-*): in the
// pad, UU, CPI, Length and CRC.
func FuzzPushWire(f *testing.F) {
	f.Fuzz(func(t *testing.T, src []byte) {
		for _, path := range cellPaths() {
			path.run(func() { checkWireEquivalence(t, VC{VCI: 100}, src) })
		}
	})
}
