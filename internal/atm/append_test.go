package atm

import (
	"bytes"
	"testing"
)

// TestAppendCellsRoundtrip: wire-form cells decode and reassemble back to
// the original payload.
func TestAppendCellsRoundtrip(t *testing.T) {
	vc := VC{VCI: 99}
	payload := []byte("the quick brown fox jumps over the lazy dog")
	dst, err := AppendCells(nil, vc, payload)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReassembler(vc)
	for off := 0; off < len(dst); off += CellSize {
		cell, err := DecodeCell(dst[off : off+CellSize])
		if err != nil {
			t.Fatalf("cell at %d: %v", off, err)
		}
		got, done, err := r.Push(cell)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			if off+CellSize != len(dst) {
				t.Fatal("frame ended early")
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("payload mismatch: %q", got)
			}
			return
		}
	}
	t.Fatal("frame never completed")
}

// TestReassemblerBufferReuse: the payload PushWire returns is valid until
// the next PushWire, which reuses the same backing buffer.
func TestReassemblerBufferReuse(t *testing.T) { onPaths(t, testReassemblerBufferReuse) }

func testReassemblerBufferReuse(t *testing.T) {
	vc := VC{VCI: 6}
	first, _ := AppendCells(nil, vc, bytes.Repeat([]byte{0xAA}, 100))
	second, _ := AppendCells(nil, vc, bytes.Repeat([]byte{0xBB}, 100))
	r := NewReassembler(vc)
	_, got1, done, err := r.PushWire(first)
	if err != nil || !done || got1[0] != 0xAA {
		t.Fatalf("first frame: done=%v err=%v", done, err)
	}
	_, got2, done, err := r.PushWire(second)
	if err != nil || !done || got2[0] != 0xBB {
		t.Fatalf("second frame: done=%v err=%v", done, err)
	}
	if &got1[0] != &got2[0] {
		t.Fatal("second frame did not reuse the first frame's buffer")
	}
}

// TestAppendCellsRunsMatchConcat: a payload handed over as runs segments to
// exactly the cells of its concatenation, wherever the run boundary falls —
// inside a cell, on a cell edge, in the cell the trailer shares — and with
// empty runs among them. Every two-run split of payloads 0-200 and of a full
// udpatm chunk (8184); for the largest PDU, the splits near both ends and a
// stride across the middle. Three runs are what udpatm sends (chunk header,
// message header, data).
func TestAppendCellsRunsMatchConcat(t *testing.T) {
	vc := VC{VPI: 3, VCI: 777}
	var want, got []byte
	check := func(p []byte, runs ...[]byte) {
		t.Helper()
		var err error
		if got, err = AppendCellRuns(got[:0], vc, runs...); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			lens := make([]int, len(runs))
			for i, r := range runs {
				lens[i] = len(r)
			}
			t.Fatalf("payload %d as runs %v: cells differ from AppendCells on the concatenation", len(p), lens)
		}
	}
	sizes := []int{8184, MaxPDU}
	for n := 0; n <= 200; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		p := patterned(n)
		var err error
		if want, err = AppendCells(want[:0], vc, p); err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= n; k++ {
			if n == MaxPDU && k > 100 && k < n-100 && k%997 != 0 {
				continue
			}
			check(p, p[:k], p[k:])
		}
		check(p, nil, p, nil)
		if n >= 44 {
			check(p, p[:8], p[8:44], p[44:])
			check(p, p[:8], nil, p[8:])
		}
	}
	if _, err := AppendCellRuns(nil, vc, make([]byte, MaxPDU), []byte{0}); err != ErrTooLong {
		t.Fatalf("runs totalling MaxPDU+1: err = %v, want ErrTooLong", err)
	}
}
