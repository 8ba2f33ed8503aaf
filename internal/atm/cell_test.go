package atm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestCellHeaderRoundtrip(t *testing.T) {
	h := Header{GFC: 0xA, VPI: 0x5C, VCI: 0x0FFF, PT: 0x5, CLP: true}
	c := Cell{Header: h}
	for i := range c.Payload {
		c.Payload[i] = byte(i)
	}
	got, err := DecodeCell(c.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != h {
		t.Fatalf("header = %+v, want %+v", got.Header, h)
	}
	if got.Payload != c.Payload {
		t.Fatal("payload corrupted in roundtrip")
	}
}

// TestVCNumbering: VCI = 64 + src*256 + dst with the channel as VPI,
// channel 0 on the default mesh, and no two (src, dst, channel) triples of
// an 8-host mesh sharing a VC.
func TestVCNumbering(t *testing.T) {
	vc := VCFor(2, 3)
	if vc.VPI != 0 || vc.VCI != 64+2*256+3 {
		t.Fatalf("vc = %+v", vc)
	}
	if cvc := VCForChan(2, 3, 9); cvc.VPI != 9 || cvc.VCI != vc.VCI {
		t.Fatalf("channel vc = %+v", cvc)
	}
	if VCForChan(2, 3, 0) != vc {
		t.Fatal("channel 0 must ride the default VC")
	}
	seen := map[VC]bool{}
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			for ch := uint16(0); ch < 4; ch++ {
				if s == d {
					continue
				}
				vc := VCForChan(s, d, ch)
				if seen[vc] {
					t.Fatalf("VC collision at %d->%d channel %d", s, d, ch)
				}
				seen[vc] = true
			}
		}
	}
}

func TestCellSizeOnWire(t *testing.T) {
	c := Cell{Header: Header{VCI: 42}}
	if len(c.Bytes()) != 53 {
		t.Fatalf("wire cell = %d octets, want 53", len(c.Bytes()))
	}
}

func TestDecodeRejectsBadSize(t *testing.T) {
	if _, err := DecodeCell(make([]byte, 52)); err != ErrCellSize {
		t.Fatalf("err = %v, want ErrCellSize", err)
	}
}

func TestHECDetectsHeaderCorruption(t *testing.T) {
	c := Cell{Header: Header{VPI: 1, VCI: 77, PT: 1}}
	for byteIdx := 0; byteIdx < 5; byteIdx++ {
		for bit := 0; bit < 8; bit++ {
			wire := c.Bytes()
			wire[byteIdx] ^= 1 << bit
			if _, err := DecodeCell(wire); err != ErrHEC {
				t.Fatalf("flip byte %d bit %d: err = %v, want ErrHEC", byteIdx, bit, err)
			}
		}
	}
}

func TestEncodeRejectsOutOfRangeFields(t *testing.T) {
	c := Cell{Header: Header{GFC: 0x1F}}
	if err := c.Encode(make([]byte, CellSize)); err != ErrFieldRange {
		t.Fatalf("err = %v, want ErrFieldRange", err)
	}
	c = Cell{Header: Header{PT: 0x8}}
	if err := c.Encode(make([]byte, CellSize)); err != ErrFieldRange {
		t.Fatalf("err = %v, want ErrFieldRange", err)
	}
}

func TestQuickHeaderRoundtrip(t *testing.T) {
	f := func(gfc, vpi uint8, vci uint16, pt uint8, clp bool) bool {
		h := Header{GFC: gfc & 0xF, VPI: vpi, VCI: vci, PT: pt & 0x7, CLP: clp}
		c := Cell{Header: h}
		got, err := DecodeCell(c.Bytes())
		return err == nil && got.Header == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// errNoFrame is reassembleTrain's report of a train that ends inside its
// frame: PushWire holds such a frame open for cells still to come.
var errNoFrame = errors.New("train ended inside a frame")

// reassembleTrain takes a train of wire cells holding one frame through a
// fresh reassembler's PushWire and returns the frame's payload, or the
// error of the cell PushWire rejected, or errNoFrame.
func reassembleTrain(vc VC, cells []byte) ([]byte, error) {
	n, payload, done, err := NewReassembler(vc).PushWire(cells)
	switch {
	case err != nil:
		return nil, err
	case !done:
		return nil, errNoFrame
	case n != len(cells):
		return nil, fmt.Errorf("frame ended at cell %d of %d", n/CellSize-1, len(cells)/CellSize)
	}
	return payload, nil
}

// flipPayloadBit flips bit of payload octet i of wire cell c in cells.
func flipPayloadBit(cells []byte, c, i int, bit byte) {
	cells[c*CellSize+HeaderSize+i] ^= bit
}

func TestSegmentReassembleRoundtrip(t *testing.T) { onPaths(t, testSegmentReassembleRoundtrip) }

func testSegmentReassembleRoundtrip(t *testing.T) {
	vc := VC{VPI: 2, VCI: 100}
	for _, n := range []int{0, 1, 39, 40, 41, 47, 48, 49, 95, 96, 1000, 65535} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		cells, err := AppendCells(nil, vc, payload)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(cells) != CellCount(n)*CellSize {
			t.Fatalf("n=%d: %d octets of cells, CellCount says %d cells", n, len(cells), CellCount(n))
		}
		got, err := reassembleTrain(vc, cells)
		if err != nil {
			t.Fatalf("n=%d: reassemble: %v", n, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("n=%d: payload mismatch", n)
		}
	}
}

// TestSegmentCellProperties: every cell AppendCells lays passes HEC, rides
// the frame's VC and carries the end-of-frame indication only if last.
func TestSegmentCellProperties(t *testing.T) { onPaths(t, testSegmentCellProperties) }

func testSegmentCellProperties(t *testing.T) {
	vc := VC{VPI: 1, VCI: 5}
	cells, err := AppendCells(nil, vc, make([]byte, 100))
	if err != nil {
		t.Fatal(err)
	}
	n := len(cells) / CellSize
	for i := 0; i < n; i++ {
		h, err := DecodeHeader(cells[i*CellSize:])
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if h.VC() != vc {
			t.Fatalf("cell %d on VC %v, want %v", i, h.VC(), vc)
		}
		if h.EndOfFrame() != (i == n-1) {
			t.Fatalf("cell %d end-of-frame flag wrong", i)
		}
	}
}

func TestSegmentRejectsOversize(t *testing.T) {
	if _, err := AppendCells(nil, VC{}, make([]byte, MaxPDU+1)); err != ErrTooLong {
		t.Fatalf("err = %v, want ErrTooLong", err)
	}
}

func TestReassemblerDetectsPayloadCorruption(t *testing.T) {
	onPaths(t, testReassemblerDetectsPayloadCorruption)
}

func testReassemblerDetectsPayloadCorruption(t *testing.T) {
	vc := VC{VCI: 9}
	payload := make([]byte, 500)
	for i := range payload {
		payload[i] = byte(i)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		cells, _ := AppendCells(nil, vc, payload)
		ci := rng.Intn(len(cells) / CellSize)
		bi := rng.Intn(PayloadSize)
		flipPayloadBit(cells, ci, bi, 1<<rng.Intn(8))
		// A flip in the pad area also breaks the CRC since the CRC covers
		// pad; a flip in the length/CRC trailer breaks length or CRC.
		if _, err := reassembleTrain(vc, cells); err == nil {
			t.Fatalf("trial %d: corruption in cell %d byte %d not detected", trial, ci, bi)
		}
	}
}

// TestReassemblerRejectsForeignVC: a cell for another VC is refused with
// ErrVC and not consumed, so the caller can hand it on.
func TestReassemblerRejectsForeignVC(t *testing.T) {
	r := NewReassembler(VC{VCI: 1})
	cells, _ := AppendCells(nil, VC{VCI: 2}, nil)
	if n, _, _, err := r.PushWire(cells); err != ErrVC || n != 0 {
		t.Fatalf("foreign VC: n=%d err=%v, want 0, ErrVC", n, err)
	}
}

func TestReassemblerTracksDrops(t *testing.T) { onPaths(t, testReassemblerTracksDrops) }

func testReassemblerTracksDrops(t *testing.T) {
	vc := VC{VCI: 3}
	cells, _ := AppendCells(nil, vc, []byte("hello world"))
	flipPayloadBit(cells, 0, 0, 0xFF)
	r := NewReassembler(vc)
	if _, _, _, err := r.PushWire(cells); err != ErrCRC {
		t.Fatalf("err = %v, want ErrCRC", err)
	}
	if r.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", r.Dropped())
	}
}

// TestReassembleDetectsLostLastCell: a frame that lost its end-of-frame
// cell stays open, and the next frame's end finds the pair mis-framed.
func TestReassembleDetectsLostLastCell(t *testing.T) { onPaths(t, testReassembleDetectsLostLastCell) }

func testReassembleDetectsLostLastCell(t *testing.T) {
	vc := VC{VCI: 8}
	cells, _ := AppendCells(nil, vc, make([]byte, 200))
	if _, err := reassembleTrain(vc, cells[:len(cells)-CellSize]); err != errNoFrame {
		t.Fatalf("err = %v, want errNoFrame", err)
	}
	r := NewReassembler(vc)
	r.PushWire(cells[:len(cells)-CellSize])
	if _, _, done, err := r.PushWire(cells); done || err == nil || r.Dropped() != 1 {
		t.Fatalf("next frame after a lost last cell: done=%v err=%v dropped=%d", done, err, r.Dropped())
	}
}

func TestReassembleDetectsLostMiddleCell(t *testing.T) {
	onPaths(t, testReassembleDetectsLostMiddleCell)
}

func testReassembleDetectsLostMiddleCell(t *testing.T) {
	vc := VC{VCI: 8}
	cells, _ := AppendCells(nil, vc, make([]byte, 500))
	trunc := slices.Delete(cells, 2*CellSize, 3*CellSize)
	if _, err := reassembleTrain(vc, trunc); err == nil {
		t.Fatal("lost middle cell not detected")
	}
}

// TestBackToBackFramesOneReassembler: one reassembler takes five frames of
// growing size, each handed over alone and then all five as one train.
func TestBackToBackFramesOneReassembler(t *testing.T) {
	onPaths(t, testBackToBackFramesOneReassembler)
}

func testBackToBackFramesOneReassembler(t *testing.T) {
	vc := VC{VCI: 11}
	r := NewReassembler(vc)
	var payloads [][]byte
	var train []byte
	for frame := 0; frame < 5; frame++ {
		payload := bytes.Repeat([]byte{byte(frame)}, 100+frame*48)
		cells, _ := AppendCells(nil, vc, payload)
		if _, got, done, err := r.PushWire(cells); err != nil || !done || !bytes.Equal(got, payload) {
			t.Fatalf("frame %d: done=%v err=%v", frame, done, err)
		}
		payloads = append(payloads, payload)
		train = append(train, cells...)
	}
	for frame, payload := range payloads {
		n, got, done, err := r.PushWire(train)
		if err != nil || !done || !bytes.Equal(got, payload) {
			t.Fatalf("train frame %d: done=%v err=%v", frame, done, err)
		}
		train = train[n:]
	}
	if len(train) != 0 {
		t.Fatalf("%d octets of the train left over", len(train))
	}
}

func TestQuickSegmentReassemble(t *testing.T) { onPaths(t, testQuickSegmentReassemble) }

func testQuickSegmentReassemble(t *testing.T) {
	vc := VC{VPI: 3, VCI: 77}
	f := func(payload []byte) bool {
		if len(payload) > MaxPDU {
			payload = payload[:MaxPDU]
		}
		cells, err := AppendCells(nil, vc, payload)
		if err != nil {
			return false
		}
		got, err := reassembleTrain(vc, cells)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSingleBitFlipDetected(t *testing.T) { onPaths(t, testQuickSingleBitFlipDetected) }

func testQuickSingleBitFlipDetected(t *testing.T) {
	vc := VC{VCI: 4}
	f := func(payload []byte, cellIdx, byteIdx, bitIdx uint8) bool {
		if len(payload) == 0 {
			payload = []byte{0}
		}
		if len(payload) > 4096 {
			payload = payload[:4096]
		}
		cells, err := AppendCells(nil, vc, payload)
		if err != nil {
			return false
		}
		ci := int(cellIdx) % (len(cells) / CellSize)
		flipPayloadBit(cells, ci, int(byteIdx)%PayloadSize, 1<<(bitIdx%8))
		_, err = reassembleTrain(vc, cells)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAAL5CRCKnownValue(t *testing.T) {
	// The MSB-first CRC-32 with generator 0x04C11DB7, init all-ones and
	// final complement is the CRC-32/BZIP2 parameterization; its standard
	// check value over "123456789" is 0xFC891918.
	if got := aal5crc32([]byte("123456789")); got != 0xFC891918 {
		t.Fatalf("crc(123456789) = %08x, want fc891918", got)
	}
	// Sensitivity to a single-bit change.
	a := aal5crc32([]byte{0x00})
	b := aal5crc32([]byte{0x01})
	if a == b {
		t.Fatal("CRC insensitive to bit flip")
	}
}
