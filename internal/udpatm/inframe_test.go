package udpatm

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/atm"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The reader gathers each AAL5 frame at its chunk's place in the message
// frame (wire.Assembler.Place, lent to the reassembler), so a chunk's header
// lands on the last octets of the message so far and its body where the
// message needs it. These tests hold the cases where a frame does not simply
// land and commit: a frame that fails, a message abandoned mid-frame, a
// header length the frame was not laid out for, and a frame larger than the
// room it was lent. A VC is lent no place before it has completed a message,
// so each test opens its VC with one (opener); the last test holds that rule.
// Their names match CI's 386 udpatm line.

// chunkFrames returns the AAL5 frames, each in wire cells, that carry m on
// vc, one per chunk, exactly as enqueueFrames would cut them.
func chunkFrames(vc atm.VC, m *transport.Message) (frames [][]byte) {
	ck := wire.NewChunker(m.MarshalAppend(nil), m.Seq, MaxChunk)
	for {
		chunk, ok := ck.Next(nil)
		if !ok {
			return frames
		}
		cells, err := atm.AppendCells(nil, vc, chunk)
		if err != nil {
			panic(err) // a chunk is far below MaxPDU
		}
		frames = append(frames, cells)
	}
}

// pattern returns n octets no run of which repeats a chunk header's, so a
// misplaced or unrestored octet shows.
func pattern(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) + seed
	}
	return b
}

// opener returns a short message, and its cells on vc, for a test to open
// vc's stream with: the messages after it are gathered in place.
func opener(vc atm.VC) (*transport.Message, []byte) {
	m := &transport.Message{From: 0, To: 1, Seq: 100, Data: pattern(9, 200), HasCredit: true, Credit: 1}
	return m, bytes.Join(chunkFrames(vc, m), nil)
}

// delivered is one message as the reader handed it over.
type delivered struct {
	m       transport.Message // Data copied out
	aligned bool              // Data started PayloadAlign-aligned
}

// receiveInFrame hands each datagram to a fresh endpoint's receiveTrain and
// returns what it delivered, with the endpoint for its counters.
func receiveInFrame(dgrams ...[]byte) (got []delivered, e *Endpoint) {
	e = readDirect(func(m *transport.Message) {
		d := delivered{m: *m, aligned: len(m.Data) == 0 ||
			reflect.ValueOf(m.Data).Pointer()%wire.PayloadAlign == 0}
		d.m.Data = bytes.Clone(m.Data)
		got = append(got, d)
		m.Release()
	}, func(e *Endpoint) {
		for _, d := range dgrams {
			e.receiveTrain(d)
		}
	})
	return got, e
}

// checkDelivered holds got to exactly want, in order: the same payloads and
// control words, each payload aligned.
func checkDelivered(t *testing.T, got []delivered, want ...*transport.Message) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d messages delivered, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i].m
		if g.Seq != w.Seq || !bytes.Equal(g.Data, w.Data) || g.HasCredit != w.HasCredit ||
			g.HasAck != w.HasAck || g.Credit != w.Credit || g.Ack != w.Ack {
			t.Errorf("message %d (seq %d, %d octets): delivered seq %d, %d octets, not byte-identical",
				i, w.Seq, len(w.Data), g.Seq, len(g.Data))
		}
		if !got[i].aligned {
			t.Errorf("message %d (%d-octet header): payload not %d-byte aligned", i, w.WireSize()-len(w.Data), wire.PayloadAlign)
		}
	}
}

// TestReceiveTrainInFrameFailedFrameRetried: chunk 1's frame fails — its CRC,
// or it runs past the longest legal PDU — after its first cell put its chunk
// header over the last 8 octets of chunk 0's body; then a valid copy of
// chunk 1 arrives. The message must be delivered byte-identical: every frame
// that ends without a chunk gives the octets back.
func TestReceiveTrainInFrameFailedFrameRetried(t *testing.T) {
	vc := atm.VCFor(0, 1)
	op, opCells := opener(vc)
	m := &transport.Message{From: 0, To: 1, Seq: 1, Data: pattern(1, 16<<10)}
	frames := chunkFrames(vc, m)

	badCRC := bytes.Clone(frames[1])
	badCRC[100*atm.CellSize+20] ^= 0x01 // a payload octet mid-frame
	// One cell past the longest legal PDU, none of them end-of-frame: the
	// last is refused with ErrTooLong, and the frame with it.
	var runaway []byte
	for len(runaway) < (maxPDUOctets/atm.PayloadSize+1)*atm.CellSize {
		runaway = append(runaway, frames[1][:atm.CellSize]...)
	}
	for name, bad := range map[string][]byte{"crc": badCRC, "too-long": runaway} {
		got, e := receiveInFrame(opCells, frames[0], bad, frames[1], frames[2])
		if e.BadCells() == 0 {
			t.Errorf("%s: the failed frame was not counted", name)
		}
		checkDelivered(t, got, op, m)
	}
}

// TestReceiveTrainInFrameSequenceChange: message 1's chunk 0 arrives and its
// chunk 1 is lost; message 2's only chunk then lands where chunk 1 would
// have, mid-frame. Message 1 is abandoned and message 2 delivered
// byte-identical, its payload aligned, and the stream goes on.
func TestReceiveTrainInFrameSequenceChange(t *testing.T) {
	vc := atm.VCFor(0, 1)
	m1 := &transport.Message{From: 0, To: 1, Seq: 1, Data: pattern(1, 16<<10)}
	m2 := &transport.Message{From: 0, To: 1, Seq: 2, Data: pattern(2, 3000)}
	m3 := &transport.Message{From: 0, To: 1, Seq: 3, Data: pattern(3, 16<<10)}
	op, opCells := opener(vc)
	got, e := receiveInFrame(opCells, chunkFrames(vc, m1)[0], messageCells(vc, 2, m2.Data), messageCells(vc, 3, m3.Data))
	checkDelivered(t, got, op, m2, m3)
	if d := e.rx[vc].asm.Dropped(); d != 1 {
		t.Errorf("assembler dropped %d messages, want message 1", d)
	}
}

// TestReceiveTrainInFrameHeaderRealign: consecutive messages on one VC with
// different header lengths (a credit, no control word, a credit and an ack,
// a credit). The frame is laid out for the last message's header before the
// next message's first cell shows its own; every delivered payload must
// still start aligned.
func TestReceiveTrainInFrameHeaderRealign(t *testing.T) {
	vc := atm.VCFor(0, 1)
	op, _ := opener(vc)
	msgs := []*transport.Message{
		op,
		{From: 0, To: 1, Seq: 1, Data: pattern(1, 16<<10)},
		{From: 0, To: 1, Seq: 2, Data: pattern(2, 16<<10), HasCredit: true, Credit: 5, HasAck: true, Ack: 6},
		{From: 0, To: 1, Seq: 3, Data: pattern(3, 300), HasCredit: true, Credit: 7},
		{From: 0, To: 1, Seq: 4, Data: pattern(4, 9000)},
		{From: 0, To: 1, Seq: 5, Data: pattern(5, 9000), HasAck: true, Ack: 8},
	}
	var dgrams [][]byte
	for _, m := range msgs {
		dgrams = append(dgrams, bytes.Join(chunkFrames(vc, m), nil))
	}
	got, _ := receiveInFrame(dgrams...)
	checkDelivered(t, got, msgs...)
}

// TestReceiveTrainInFrameOversizePDU: a peer sends a message as one chunk in
// one PDU, longer than the room the reader lent it — after a short message,
// which sizes the next frame small, and after a long one, past the most a
// chunk frame of this package takes. The frame finishes in the reassembler's
// own buffer; the message is delivered byte-identical and aligned.
func TestReceiveTrainInFrameOversizePDU(t *testing.T) {
	vc := atm.VCFor(0, 1)
	// oneChunk cuts m into a single chunk and its one frame.
	oneChunk := func(m *transport.Message) []byte {
		chunk := wire.AppendChunkHeader(nil, wire.ChunkHeader{Seq: m.Seq, Last: true})
		cells, err := atm.AppendCells(nil, vc, m.MarshalAppend(chunk))
		if err != nil {
			t.Fatal(err)
		}
		return cells
	}
	short := &transport.Message{From: 0, To: 1, Seq: 1, Data: pattern(1, 300)}
	long := &transport.Message{From: 0, To: 1, Seq: 2, Data: pattern(2, 20000)}
	// The longest single-chunk message AAL5 carries: 65,535 octets of chunk.
	longest := &transport.Message{From: 0, To: 1, Seq: 3,
		Data: pattern(3, atm.MaxPDU-wire.ChunkHeaderSize-wire.HeaderSize)}

	got, _ := receiveInFrame(oneChunk(short), oneChunk(long))
	checkDelivered(t, got, short, long)
	got, _ = receiveInFrame(oneChunk(long), oneChunk(longest), messageCells(vc, 4, pattern(4, 100)))
	checkDelivered(t, got, long, longest, &transport.Message{From: 0, To: 1, Seq: 4, Data: pattern(4, 100)})
}

// TestReceiveTrainInFrameFreshVCsHoldOneCell: one cell with a valid header on
// each of a thousand VCs the reader has never seen, none completing a frame.
// A VC that has completed no message is lent no place, so each holds the one
// cell payload its reassembler took and no message frame: the reader's
// memory grows by what the cells carried, not by a frame per VC.
func TestReceiveTrainInFrameFreshVCsHoldOneCell(t *testing.T) {
	const vcs = 1000
	var dgram []byte
	for i := 0; i < vcs; i++ {
		cells, err := atm.AppendCells(nil, atm.VC{VPI: 1, VCI: uint16(1000 + i)}, pattern(byte(i), 100))
		if err != nil {
			t.Fatal(err)
		}
		dgram = append(dgram, cells[:atm.CellSize]...) // not the end of its frame
	}
	var before, after runtime.MemStats
	e := readDirect(func(m *transport.Message) { m.Release() }, func(e *Endpoint) {
		runtime.ReadMemStats(&before)
		e.receiveTrain(dgram)
		runtime.ReadMemStats(&after)
	})
	if len(e.rx) != vcs {
		t.Fatalf("%d VCs opened, want %d", len(e.rx), vcs)
	}
	for vc, rx := range e.rx {
		if n := rx.reasm.Buffered(); n != atm.PayloadSize {
			t.Fatalf("VC %v's reassembler holds %d octets, want the one cell's %d", vc, n, atm.PayloadSize)
		}
	}
	// A VC's receive state and its one cell take under 2 KB; a frame sized
	// for a chunk or a message, not for the cell that came, would not.
	if per := (after.TotalAlloc - before.TotalAlloc) / vcs; per > 2<<10 {
		t.Errorf("the reader allocated %d octets per fresh VC, want under 2 KB", per)
	}
}

// BenchmarkReceiveTrain times the reader's side of stream_udpatm's traffic:
// datagrams of three 16 KB messages on one VC, nine AAL5 frames, through
// receiveTrain into the Inbox, and the consumer releasing each message.
func BenchmarkReceiveTrain(b *testing.B) {
	vc := atm.VCFor(0, 1)
	var dgram []byte
	for seq := uint32(1); seq <= 3; seq++ {
		dgram = append(dgram, messageCells(vc, seq, pattern(byte(seq), 16<<10))...)
	}
	b.SetBytes(3 * 16 << 10)
	b.ReportAllocs()
	readDirect(func(m *transport.Message) { m.Release() }, func(e *Endpoint) {
		e.receiveTrain(dgram) // the VC's state, and its frame sizes, settle
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.receiveTrain(dgram)
		}
		b.StopTimer()
	})
}
