package atm

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestAppendCellsMatchesSegment: the zero-copy wire-form packer must emit
// byte-for-byte what Segment + per-cell Bytes produce, across payload sizes
// spanning the pad/trailer geometry.
func TestAppendCellsMatchesSegment(t *testing.T) {
	vc := VC{VPI: 3, VCI: 777}
	rng := rand.New(rand.NewSource(21))
	sizes := []int{0, 1, 39, 40, 41, 47, 48, 49, 95, 96, 1000, 8184}
	for _, n := range sizes {
		payload := make([]byte, n)
		rng.Read(payload)
		cells, err := Segment(vc, payload)
		if err != nil {
			t.Fatalf("n=%d: Segment: %v", n, err)
		}
		var want []byte
		for i := range cells {
			want = append(want, cells[i].Bytes()...)
		}
		got, err := AppendCells(nil, vc, payload)
		if err != nil {
			t.Fatalf("n=%d: AppendCells: %v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: AppendCells differs from Segment wire form", n)
		}
	}
}

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

// TestSegmentIntoReusesSlice: segmentation into a scratch slice must not
// allocate once the slice has grown to the working set.
func TestSegmentIntoReusesSlice(t *testing.T) {
	vc := VC{VCI: 5}
	payload := make([]byte, 4096)
	scratch, err := SegmentInto(nil, vc, payload)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		cells, err := SegmentInto(scratch[:0], vc, payload)
		if err != nil {
			t.Fatal(err)
		}
		scratch = cells[:0]
	})
	if avg > 0 {
		t.Fatalf("SegmentInto allocates %.1f/op on a warm scratch slice, want 0", avg)
	}
}

// TestReassemblerBufferReuse: the payload returned by Push is valid until
// the next Push, which reuses the same backing buffer.
func TestReassemblerBufferReuse(t *testing.T) {
	vc := VC{VCI: 6}
	first, _ := Segment(vc, bytes.Repeat([]byte{0xAA}, 100))
	second, _ := Segment(vc, bytes.Repeat([]byte{0xBB}, 100))
	r := NewReassembler(vc)
	var got1 []byte
	for _, c := range first {
		if p, done, err := r.Push(c); err != nil {
			t.Fatal(err)
		} else if done {
			got1 = p
		}
	}
	if got1 == nil || got1[0] != 0xAA {
		t.Fatal("first frame missing")
	}
	for _, c := range second {
		if p, done, err := r.Push(c); err != nil {
			t.Fatal(err)
		} else if done {
			if p[0] != 0xBB {
				t.Fatal("second frame corrupt")
			}
		}
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
