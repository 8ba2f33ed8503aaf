package atm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// aal5crc32 computes the AAL5 CRC-32 (generator 0x04C11DB7, init all-ones,
// final complement) over p: crcUpdate's one-shot form.
func aal5crc32(p []byte) uint32 {
	return ^crcUpdate(^uint32(0), p)
}

// crcBitSerial is the AAL5 CRC-32 straight from its definition — one
// message bit at a time through the generator, MSB first, all-ones preset,
// final complement — kept here as the reference crcUpdate is held to.
func crcBitSerial(p []byte) uint32 {
	return ^bitSerialUpdate(^uint32(0), p)
}

// bitSerialUpdate is the reference in crcUpdate's raw-register form.
func bitSerialUpdate(crc uint32, p []byte) uint32 {
	for _, b := range p {
		crc ^= uint32(b) << 24
		for i := 0; i < 8; i++ {
			if crc&0x80000000 != 0 {
				crc = crc<<1 ^ aal5Poly
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// TestCRCMatchesBitSerial: slicing-by-8 equals the bit-serial definition on
// every length around the 8-octet stride (the tail loop, the empty input)
// and on unaligned starts.
func TestCRCMatchesBitSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	buf := make([]byte, 4096+7)
	rng.Read(buf)
	for n := 0; n <= 130; n++ {
		for off := 0; off < 8; off++ {
			p := buf[off : off+n]
			if got, want := aal5crc32(p), crcBitSerial(p); got != want {
				t.Fatalf("len %d off %d: crc %08x, bit-serial %08x", n, off, got, want)
			}
		}
	}
	for _, n := range []int{255, 256, 257, 1000, 4095, 4096} {
		if got, want := aal5crc32(buf[:n]), crcBitSerial(buf[:n]); got != want {
			t.Fatalf("len %d: crc %08x, bit-serial %08x", n, got, want)
		}
	}
}

// TestCRCKernelsAgree calls the kernels directly — the table loop, the
// reflected kernel and, on amd64 with PCLMULQDQ, foldBlocks with the table
// loop taking a run's last few octets — and holds each
// to the bit-serial reference: every length through two mirror blocks and
// beyond, the chunk and frame sizes the datapath produces, three starting
// registers (the preset, zero, one taken mid-stream), and every two-call
// split of a run that crosses two mirror blocks: each kernel after itself,
// the table loop after each, and the fold after the table loop. The fold
// also runs from every source offset mod 16 on every length from below its
// floor to 2 KB + 64.
func TestCRCKernelsAgree(t *testing.T) {
	buf := patterned(MaxPDU + 4 + 15)
	kernels := crcKernels()
	table, reflected := kernels[0], kernels[1]
	splits := [][2]crcKernel{{table, table}, {reflected, reflected}, {reflected, table}}
	if len(kernels) > 2 {
		fold := kernels[2]
		splits = append(splits, [2]crcKernel{fold, fold}, [2]crcKernel{fold, table}, [2]crcKernel{table, fold})
	}
	lengths := []int{8184, 8192, MaxPDU + 4}
	for n := 0; n <= 2*reflectBlock+64; n++ {
		lengths = append(lengths, n)
	}
	for _, preset := range []uint32{^uint32(0), 0, crcTable(^uint32(0), []byte("mid-stream"))} {
		ref := prefixes(preset, buf[:MaxPDU+4])
		for _, n := range lengths {
			for _, k := range kernels {
				if got := k.fn(preset, buf[:n]); got != ref[n] {
					t.Fatalf("preset %08x len %d: %s %08x, bit-serial %08x", preset, n, k.name, got, ref[n])
				}
			}
		}
		n := 2*reflectBlock + 9
		for k := 0; k <= n; k++ {
			for _, s := range splits {
				if got := s[1].fn(s[0].fn(preset, buf[:k]), buf[k:n]); got != ref[n] {
					t.Fatalf("preset %08x split %d of %d: %s then %s %08x, bit-serial %08x",
						preset, k, n, s[0].name, s[1].name, got, ref[n])
				}
			}
		}
		if len(kernels) < 3 {
			continue
		}
		const maxLen = 2048 + 64
		for off := 1; off < 16; off++ {
			ref := prefixes(preset, buf[off:off+maxLen])
			for n := 0; n <= maxLen; n++ {
				if got := kernels[2].fn(preset, buf[off:off+n]); got != ref[n] {
					t.Fatalf("preset %08x len %d src+%d: fold %08x, bit-serial %08x", preset, n, off, got, ref[n])
				}
			}
		}
	}
}

// crcKernel is one CRC kernel under test, by name.
type crcKernel struct {
	name string
	fn   func(uint32, []byte) uint32
}

// crcKernels lists the kernels this host runs: the table loop, the reflected
// kernel (portable Go around hash/crc32, so it runs everywhere) and, on amd64
// with PCLMULQDQ, the fold.
func crcKernels() []crcKernel {
	return append([]crcKernel{{"table", crcTable}, {"reflected", crcReflected}}, foldKernels()...)
}

// prefixes is the bit-serial register after every prefix of p, advanced
// octet by octet so that each prefix costs one step more than the last.
func prefixes(preset uint32, p []byte) []uint32 {
	ref := make([]uint32, len(p)+1)
	ref[0] = preset
	for i := range p {
		ref[i+1] = bitSerialUpdate(ref[i], p[i:i+1])
	}
	return ref
}

// FuzzAAL5CRC holds crcUpdate to the bit-serial reference on arbitrary
// input, both one-shot and streamed across an arbitrary split (the way the
// cell loops run it, a cell or a batch of cells at a time), and both cell
// paths to the same reference: the input's whole payloads are a frame,
// laid into cells by segmentCells and taken back by reassembleCells, each
// in two calls split at the cell boundary the split falls in, so the
// carried accumulator crosses a call. The laid frame must carry the
// complemented reference register in its last cell's CRC field and so
// leave the residue when taken back; the input's own cells, taken back,
// must leave the reference register over every octet. Seeds:
// every length 0-17 here, longer ones in testdata/fuzz/FuzzAAL5CRC —
// among them the lengths around the fold's four-block loop and a block
// past it (63-65, 79, 80), around reflectMin and reflectBlock, one short of 4 KB, and valid
// PDUs with one bit of the last cell flipped (pad, Length, CRC), so plain
// go test crosses every kernel's threshold, the fold's four-block and
// one-block loops, the cell kernels' odd and even payload counts and the
// residue check's refusals.
func FuzzAAL5CRC(f *testing.F) {
	for n := 0; n <= 17; n++ {
		f.Add(patterned(n), uint16(n/2))
	}
	f.Fuzz(func(t *testing.T, p []byte, split uint16) {
		want := crcBitSerial(p)
		if got := aal5crc32(p); got != want {
			t.Fatalf("len %d: crc %08x, bit-serial %08x", len(p), got, want)
		}
		k := 0
		if len(p) > 0 {
			k = int(split) % (len(p) + 1)
		}
		if got := ^crcUpdate(crcUpdate(^uint32(0), p[:k]), p[k:]); got != want {
			t.Fatalf("len %d split %d: streamed crc %08x, bit-serial %08x", len(p), k, got, want)
		}
		m := len(p) / PayloadSize
		if m == 0 {
			return
		}
		frame := p[:m*PayloadSize]
		j := min(k/PayloadSize, m-1)
		for _, path := range cellPaths() {
			path.run(func() {
				cells, crc := layFrame(t, frame, j)
				if want := ^bitSerialUpdate(^uint32(0), frame[:len(frame)-4]); crc != want {
					t.Fatalf("%s: %d cells split at %d laid CRC %08x, bit-serial %08x", path.name, m, j, crc, want)
				}
				if _, reg, eof := takeFrame(t, cells, j); !eof || reg != aal5Residue {
					t.Fatalf("%s: %d laid cells split at %d: eof %v, register %08x, not the residue", path.name, m, j, eof, reg)
				}
				got, reg, eof := takeFrame(t, wireCells(frame), j)
				if !eof || !bytes.Equal(got, frame) {
					t.Fatalf("%s: %d cells split at %d: eof %v, payloads moved wrong", path.name, m, j, eof)
				}
				if want := bitSerialUpdate(^uint32(0), frame); reg != want {
					t.Fatalf("%s: %d cells split at %d: register %08x, bit-serial %08x", path.name, m, j, reg, want)
				}
			})
		}
	})
}

// layFrame lays frame, whole payloads, as one frame's cells on VC 0/100
// through segmentCells in two calls: the payloads before cell j and cell j
// closing the first, unless j is the last cell, whose call then is the
// only one. The last payload is laid in place with its CRC field
// overwritten; layFrame returns the cells and that field.
func layFrame(t testing.TB, frame []byte, j int) (cells []byte, crc uint32) {
	t.Helper()
	h := headersOf(VC{VCI: 100})
	m := len(frame) / PayloadSize
	cells = make([]byte, m*CellSize)
	acc := accOf(^uint32(0))
	from := 0
	if j < m-1 {
		copy(cells[j*CellSize+HeaderSize:], frame[j*PayloadSize:(j+1)*PayloadSize])
		segmentCells(&acc, cells, frame[:j*PayloadSize], j, &h, false)
		from = j + 1
	}
	copy(cells[(m-1)*CellSize+HeaderSize:], frame[(m-1)*PayloadSize:])
	segmentCells(&acc, cells[from*CellSize:], frame[from*PayloadSize:(m-1)*PayloadSize], m-1-from, &h, true)
	for i := 0; i < m; i++ {
		c := cells[i*CellSize : (i+1)*CellSize]
		if hdr := [HeaderSize]byte(c); hdr != h[btoi(i == m-1)] {
			t.Fatalf("cell %d of %d: header % x", i, m, hdr)
		}
		pay := c[HeaderSize:]
		if i == m-1 {
			pay = pay[:PayloadSize-4]
		}
		if !bytes.Equal(pay, frame[i*PayloadSize:i*PayloadSize+len(pay)]) {
			t.Fatalf("cell %d of %d: payload laid wrong", i, m)
		}
	}
	return cells, binary.BigEndian.Uint32(cells[len(cells)-4:])
}

// takeFrame takes cells, one frame on VC 0/100, back through
// reassembleCells in two calls, the first bounded at cell j, and returns
// the payloads, the register and whether the frame ended.
func takeFrame(t testing.TB, cells []byte, j int) (frame []byte, crc uint32, eof bool) {
	t.Helper()
	h := headersOf(VC{VCI: 100})
	m := len(cells) / CellSize
	frame = make([]byte, m*PayloadSize)
	acc := accOf(^uint32(0))
	k1, _, eof1 := reassembleCells(&acc, frame, cells, j, &h)
	if k1 != j || eof1 {
		t.Fatalf("%d cells bounded at %d: took %d, eof %v", m, j, k1, eof1)
	}
	k2, crc, eof := reassembleCells(&acc, frame[j*PayloadSize:], cells[j*CellSize:], m-j, &h)
	if k2 != m-j {
		t.Fatalf("%d cells from %d: took %d", m, j, k2)
	}
	return frame, crc, eof
}

// wireCells lays frame, whole payloads, as cells on VC 0/100 with no
// change to any octet: the last carries the end-of-frame header.
func wireCells(frame []byte) []byte {
	h := headersOf(VC{VCI: 100})
	m := len(frame) / PayloadSize
	cells := make([]byte, 0, m*CellSize)
	for i := 0; i < m; i++ {
		cells = append(append(cells, h[btoi(i == m-1)][:]...), frame[i*PayloadSize:(i+1)*PayloadSize]...)
	}
	return cells
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestReflectKernelsAgree holds reflect8, the reflected kernel's mirror
// pass, to the octet-by-octet definition on every length through two mirror
// blocks and beyond (the whole 8-octet words are reflected, the rest left
// alone), with guard octets on both sides of the destination that must come
// back untouched. Every pair of source and destination offsets mod 16 runs
// on each length up to five blocks and a tail; past that, the pair steps
// with the length, so each pair recurs about sixteen times.
func TestReflectKernelsAgree(t *testing.T) {
	const maxLen, guard, allPairs = 2*reflectBlock + 64, 16, 5*16 + 15
	src := patterned(maxLen + 16)
	want := make([]byte, len(src))
	for i, b := range src {
		want[i] = bits.Reverse8(b)
	}
	blank := bytes.Repeat([]byte{0xA5}, guard+16+maxLen+guard)
	dst := bytes.Clone(blank)
	check := func(n, so, do int) {
		words := n &^ 7
		d := dst[guard+do : guard+do+n]
		reflect8(d, src[so:so+n])
		if !bytes.Equal(d[:words], want[so:so+words]) {
			t.Fatalf("len %d src+%d dst+%d: reflected octets differ", n, so, do)
		}
		if !bytes.Equal(dst[do:guard+do], blank[:guard]) || !bytes.Equal(d[words:n+guard], blank[:n-words+guard]) {
			t.Fatalf("len %d src+%d dst+%d: wrote outside the whole words", n, so, do)
		}
		copy(d, blank)
	}
	for n := 0; n <= maxLen; n++ {
		if n > allPairs {
			check(n, n%16, n/16%16)
			continue
		}
		for so := 0; so < 16; so++ {
			for do := 0; do < 16; do++ {
				check(n, so, do)
			}
		}
	}
}

// BenchmarkAAL5CRC is the instrument reflectMin and crc.go's file comment
// cite: each kernel called directly — the fold only on amd64 with
// PCLMULQDQ — and crcUpdate's choice between the portable ones, on the run lengths the datapath sees: a
// cell payload, short messages around the crossovers, and 1 KB / 8 KB
// chunks. It lives here, not with the root benchmarks, because only this
// package can reach a kernel.
func BenchmarkAAL5CRC(b *testing.B) {
	kernels := append(crcKernels(), crcKernel{"crcUpdate", crcUpdate})
	for _, n := range []int{48, 64, 96, 128, 192, 256, 512, 1024, 8192} {
		p := patterned(n)
		for _, k := range kernels {
			b.Run(fmt.Sprintf("%s/%dB", k.name, n), func(b *testing.B) {
				b.SetBytes(int64(n))
				b.ReportAllocs()
				crc := ^uint32(0)
				for i := 0; i < b.N; i++ {
					crc = k.fn(crc, p)
				}
				crcSink = crc
			})
		}
	}
}

var crcSink uint32

// cellPath is one implementation of the cell loops (segmentCells,
// reassembleCells, foldRun), by name: the fold kernels or the portable path.
type cellPath struct {
	name string
	fold bool
}

// onPaths runs f as a subtest on each cell path this host runs.
func onPaths(t *testing.T, f func(t *testing.T)) {
	for _, p := range cellPaths() {
		t.Run(p.name, func(t *testing.T) { p.run(func() { f(t) }) })
	}
}

// TestCRCMoveCellsAgree holds both cell paths to the table loop (itself
// held to the bit-serial reference above) and to a plain move, on frames
// of 1 to 200 cells split into two calls at every cell boundary, so the
// accumulator a call carries to the next is held to the reference at
// every cell: segmentCells lays the frame's payloads from every source
// offset mod 16 and must leave every octet beside the cells alone;
// reassembleCells takes the cells back into a buffer from every
// destination offset mod 16 and must write only the payloads. A frame with
// a foreign header at each cell must stop its run there.
func TestCRCMoveCellsAgree(t *testing.T) {
	const maxCells = 200
	payload := patterned(maxCells * PayloadSize)
	h := headersOf(VC{VCI: 100})
	for _, path := range cellPaths() {
		path.run(func() {
			for m := 1; m <= maxCells; m++ {
				frame := payload[:m*PayloadSize]
				want := appendCellsBytewise(VC{VCI: 100}, frame[:len(frame)-trailerSize])
				// A bytewise frame's last cell holds UU, CPI and Length
				// where the payload did; lay the same octets.
				frame = append([]byte(nil), frame...)
				copy(frame[len(frame)-trailerSize:], want[len(want)-trailerSize:])
				for j := 0; j < m; j++ {
					off := j % 16
					src := append(make([]byte, off), frame...)[off:]
					cells, _ := layFrame(t, src, j)
					if !bytes.Equal(cells, want) {
						t.Fatalf("%s: %d cells split at %d, src+%d: cells differ from the bytewise reference", path.name, m, j, off)
					}
					got, crc, eof := takeFrame(t, cells, j)
					if !eof || crc != aal5Residue || !bytes.Equal(got, frame) {
						t.Fatalf("%s: %d cells split at %d: eof %v crc %08x", path.name, m, j, eof, crc)
					}
				}
				checkTakeBounds(t, path.name, want, &h)
			}
		})
	}
}

// checkTakeBounds runs reassembleCells over cells, one frame, into a
// buffer at every offset mod 16 with guard octets around it, and with a
// foreign header at each cell in turn: the run must stop at that cell and
// nothing beside the payloads it took may be written.
func checkTakeBounds(t *testing.T, name string, cells []byte, h *cellHeaders) {
	m := len(cells) / CellSize
	const guard = 16
	blank := bytes.Repeat([]byte{0xA5}, 2*guard+16+m*PayloadSize)
	for stop := 0; stop <= m; stop++ {
		src := bytes.Clone(cells)
		if stop < m {
			src[stop*CellSize+3] ^= 0x01 // CLP: a good header, not the run's
		}
		off := stop % 16
		buf := bytes.Clone(blank)
		dst := buf[guard+off : guard+off+m*PayloadSize]
		acc := accOf(^uint32(0))
		k, crc, eof := reassembleCells(&acc, dst, src, m, h)
		if k != stop {
			t.Fatalf("%s: %d cells, foreign header at %d: took %d", name, m, stop, k)
		}
		if eof != (stop == m) || eof && crc != aal5Residue {
			t.Fatalf("%s: %d cells, foreign header at %d: eof %v crc %08x", name, m, stop, eof, crc)
		}
		for i := 0; i < k; i++ {
			if !bytes.Equal(dst[i*PayloadSize:(i+1)*PayloadSize], cells[i*CellSize+HeaderSize:(i+1)*CellSize]) {
				t.Fatalf("%s: %d cells: payload %d moved wrong", name, m, i)
			}
		}
		if !bytes.Equal(buf[:guard+off], blank[:guard+off]) || !bytes.Equal(buf[guard+off+k*PayloadSize:], blank[guard+off+k*PayloadSize:]) {
			t.Fatalf("%s: %d cells, foreign header at %d: wrote beside the %d payloads taken", name, m, stop, k)
		}
	}
}

// TestAAL5Residue: every valid PDU, folded whole with its complemented CRC
// field, leaves the register at aal5Residue — 200 random payloads through
// the bit-serial reference and through foldRun on both paths — and a
// corrupted one never does.
func TestAAL5Residue(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for i := 0; i < 200; i++ {
		payload := make([]byte, rng.Intn(9000))
		rng.Read(payload)
		var pdu []byte
		for _, c := range mustCells(appendCellsBytewise(VC{VCI: 100}, payload)) {
			pdu = append(pdu, c.Payload[:]...)
		}
		if got := bitSerialUpdate(^uint32(0), pdu); got != aal5Residue {
			t.Fatalf("%d octets: bit-serial register %08x, residue %08x", len(payload), got, uint32(aal5Residue))
		}
		bad := bytes.Clone(pdu)
		bad[rng.Intn(len(bad))] ^= 1 << rng.Intn(8)
		for _, path := range cellPaths() {
			path.run(func() {
				acc, accBad := accOf(^uint32(0)), accOf(^uint32(0))
				if got := foldRun(&acc, pdu); got != aal5Residue {
					t.Fatalf("%s: %d octets: register %08x, residue %08x", path.name, len(payload), got, uint32(aal5Residue))
				}
				if got := foldRun(&accBad, bad); got == aal5Residue {
					t.Fatalf("%s: %d octets, one bit flipped: register is the residue", path.name, len(payload))
				}
			})
		}
	}
}

// mustCells decodes a train of wire cells.
func mustCells(train []byte) (cells []Cell) {
	for off := 0; off < len(train); off += CellSize {
		c, err := DecodeCell(train[off : off+CellSize])
		if err != nil {
			panic(err)
		}
		cells = append(cells, c)
	}
	return cells
}

// BenchmarkAAL5Paths times the cell loops the way the root
// BenchmarkAAL5Segment and BenchmarkAAL5Reassemble do, on each path this
// host runs: the fold kernels, and the portable path with hasFold cleared
// for the benchmark's duration. The 8184 B row is cut as udpatm cuts a
// frame (chunk header, message header, body).
func BenchmarkAAL5Paths(b *testing.B) {
	vc := VC{VCI: 100}
	rows := []struct {
		name string
		runs [][]byte
	}{
		{"64B", [][]byte{make([]byte, 64)}},
		{"8184B", [][]byte{make([]byte, 8), make([]byte, 44), make([]byte, 8184-8-44)}},
	}
	for _, path := range cellPaths() {
		for _, row := range rows {
			n := 0
			for _, r := range row.runs {
				n += len(r)
			}
			b.Run(path.name+"/Segment/"+row.name, func(b *testing.B) {
				path.run(func() {
					var cells []byte
					b.SetBytes(int64(n))
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						cells, _ = AppendCellRuns(cells[:0], vc, row.runs...)
					}
				})
			})
			b.Run(path.name+"/Reassemble/"+row.name, func(b *testing.B) {
				path.run(func() {
					cells, _ := AppendCellRuns(nil, vc, row.runs...)
					r := NewReassembler(vc)
					b.SetBytes(int64(n))
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, _, done, err := r.PushWire(cells); !done || err != nil {
							b.Fatalf("done=%v err=%v", done, err)
						}
					}
				})
			})
		}
	}
}
