package udpatm

import (
	"bytes"
	"net"
	"sync"
	"testing"

	"repro/internal/atm"
	"repro/internal/mts"
	"repro/internal/transport"
	"repro/internal/wire"
)

// frameFor builds the single AAL5 frame (wire cells) that carries a small
// message from proc 0 to proc 1 on vc, exactly as enqueueFrames would.
func frameFor(t *testing.T, vc atm.VC, seq uint32, data []byte) []byte {
	t.Helper()
	m := &transport.Message{From: 0, To: 1, Seq: seq, Data: data}
	ck := wire.NewChunker(m.MarshalAppend(nil), seq, MaxChunk)
	if ck.NumChunks() != 1 {
		t.Fatalf("message of %d octets needs %d chunks; the train tests want one", len(data), ck.NumChunks())
	}
	chunk, _ := ck.Next(nil)
	cells, err := atm.AppendCells(nil, vc, chunk)
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// receiveDatagrams attaches one endpoint, writes the hand-built datagrams
// to its socket in order from a bare UDP socket, and returns the payloads
// it delivered plus the endpoint (closed) for its counters. A final
// sentinel frame, sent as its own datagram, ends the run.
func receiveDatagrams(t *testing.T, dgrams ...[]byte) ([]string, *Endpoint) {
	t.Helper()
	rt := newRT("rx")
	ep, err := NewNetwork().Attach(1, rt)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	var got []string
	var ended bool
	var waiter *mts.Thread
	ep.SetHandler(func(m *transport.Message) {
		if string(m.Data) == sentinel {
			ended = true
			rt.Unblock(waiter, false)
			return
		}
		got = append(got, string(m.Data))
	})
	waiter = rt.Create("waiter", mts.PrioDefault, func(th *mts.Thread) {
		if !ended {
			th.Park("sentinel")
		}
	})

	raw, err := net.DialUDP("udp4", nil, ep.conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	for _, d := range append(dgrams, sentinelFrame(t)) {
		if _, err := raw.Write(d); err != nil {
			t.Fatal(err)
		}
	}
	rt.Run()
	return got, ep
}

const sentinel = "END"

func sentinelFrame(t *testing.T) []byte {
	return frameFor(t, atm.VC{VPI: 255, VCI: 9}, 1<<30, []byte(sentinel))
}

// cellsIn counts the whole cells in a run's datagrams, sentinel included.
func cellsIn(t *testing.T, dgrams ...[]byte) (n int64) {
	for _, d := range append(dgrams, sentinelFrame(t)) {
		n += int64(len(d) / atm.CellSize)
	}
	return n
}

func body(tag byte, n int) []byte { return bytes.Repeat([]byte{tag}, n) }

func wantDelivered(t *testing.T, got []string, want ...[]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("delivered %d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != string(want[i]) {
			t.Fatalf("message %d: got %d octets of %q, want %d of %q", i, len(got[i]), got[i][:1], len(want[i]), want[i][:1])
		}
	}
}

// TestTrainInterleavedVCs: cells of two VCs alternating inside one datagram
// reassemble independently — the per-run VC resolution must follow every
// switch, not just the first cell of the datagram.
func TestTrainInterleavedVCs(t *testing.T) {
	a, b := body('a', 300), body('b', 200)
	fa := frameFor(t, VCForChan(0, 1, 0), 1, a)
	fb := frameFor(t, VCForChan(0, 1, 5), 2, b)
	var dgram []byte
	for len(fa) > 0 || len(fb) > 0 {
		if len(fa) > 0 {
			dgram, fa = append(dgram, fa[:atm.CellSize]...), fa[atm.CellSize:]
		}
		if len(fb) > 0 {
			dgram, fb = append(dgram, fb[:atm.CellSize]...), fb[atm.CellSize:]
		}
	}
	got, ep := receiveDatagrams(t, dgram)
	wantDelivered(t, got, b, a) // b's shorter frame completes first
	if ep.CellsReceived() != cellsIn(t, dgram) || ep.BadCells() != 0 {
		t.Fatalf("cells received %d (want %d), bad %d (want 0)", ep.CellsReceived(), cellsIn(t, dgram), ep.BadCells())
	}
}

// TestTrainCorruptHECMidTrain: one cell with a corrupt header in the middle
// of a three-frame train costs exactly its own frame. bad_cells counts the
// rejected cell and the frame that then fails its CRC.
func TestTrainCorruptHECMidTrain(t *testing.T) {
	vc := VCFor(0, 1)
	x, y, z := body('x', 300), body('y', 300), body('z', 300)
	fx, fy, fz := frameFor(t, vc, 1, x), frameFor(t, vc, 2, y), frameFor(t, vc, 3, z)
	fy[2*atm.CellSize+4] ^= 0x04 // HEC octet of y's third cell
	dgram := append(append(fx, fy...), fz...)
	got, ep := receiveDatagrams(t, dgram)
	wantDelivered(t, got, x, z)
	if ep.BadCells() != 2 {
		t.Fatalf("bad cells = %d, want 2 (the corrupt header, then its frame's CRC)", ep.BadCells())
	}
	if want := cellsIn(t, dgram) - 1; ep.CellsReceived() != want {
		t.Fatalf("cells received = %d, want %d (every cell but the corrupt one)", ep.CellsReceived(), want)
	}
}

// TestTrainFrameSpansDatagrams: a datagram may end mid-frame and the next
// may open with that frame's end-of-frame cell; reassembly state carries
// across the boundary.
func TestTrainFrameSpansDatagrams(t *testing.T) {
	vc := VCFor(0, 1)
	x, y := body('x', 300), body('y', 100)
	fx, fy := frameFor(t, vc, 1, x), frameFor(t, vc, 2, y)
	last := len(fx) - atm.CellSize
	d1 := fx[:last]
	d2 := append(append([]byte{}, fx[last:]...), fy...)
	got, ep := receiveDatagrams(t, d1, d2)
	wantDelivered(t, got, x, y)
	if ep.CellsReceived() != cellsIn(t, d1, d2) || ep.BadCells() != 0 {
		t.Fatalf("cells received %d (want %d), bad %d (want 0)", ep.CellsReceived(), cellsIn(t, d1, d2), ep.BadCells())
	}
}

// TestTrainTruncatedFrame: a frame whose tail never arrives takes the next
// frame on its VC down with it (their cells run together and fail CRC —
// AAL5 has no other way to notice) and nothing more.
func TestTrainTruncatedFrame(t *testing.T) {
	vc := VCFor(0, 1)
	x, y, z := body('x', 300), body('y', 100), body('z', 100)
	d1 := frameFor(t, vc, 1, x)[:2*atm.CellSize]
	d2 := append(frameFor(t, vc, 2, y), frameFor(t, vc, 3, z)...)
	got, ep := receiveDatagrams(t, d1, d2)
	wantDelivered(t, got, z)
	if ep.BadCells() != 1 {
		t.Fatalf("bad cells = %d, want 1", ep.BadCells())
	}
	// A datagram that is not a whole number of cells is refused outright.
	got, ep = receiveDatagrams(t, frameFor(t, vc, 1, x)[:atm.CellSize+10])
	wantDelivered(t, got)
	if ep.BadCells() != 1 || ep.CellsReceived() != cellsIn(t) {
		t.Fatalf("ragged datagram: bad %d (want 1), received %d (want only the sentinel's %d)", ep.BadCells(), ep.CellsReceived(), cellsIn(t))
	}
}

// TestCountersReadableWhileTrafficFlows: the cell counters are written by
// the reader and writer goroutines and read from anywhere; under -race this
// polls every accessor while a stream is in flight, and the totals must
// agree once it has landed.
func TestCountersReadableWhileTrafficFlows(t *testing.T) {
	netw := NewNetwork()
	rtA, rtB := newRT("a"), newRT("b")
	epA, _ := netw.Attach(0, rtA)
	defer epA.Close()
	epB, _ := netw.Attach(1, rtB)
	defer epB.Close()
	epA.SetHandler(func(m *transport.Message) {})

	const msgs = 200
	arrived := 0
	var waiter *mts.Thread
	epB.SetHandler(func(m *transport.Message) {
		if arrived++; arrived == msgs {
			rtB.Unblock(waiter, false)
		}
	})
	waiter = rtB.Create("waiter", mts.PrioDefault, func(th *mts.Thread) {
		if arrived < msgs {
			th.Park("stream")
		}
	})
	rtA.Create("sender", mts.PrioDefault, func(th *mts.Thread) {
		data := make([]byte, 4096)
		for i := 0; i < msgs; i++ {
			epA.Send(th, &transport.Message{From: 0, To: 1, Channel: 2, Data: data})
		}
	})

	stop := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		var lastRecv, lastSent int64
		for {
			recv, sent := epB.CellsReceived(), epA.CellsSent()
			epA.VCStats(VCForChan(0, 1, 2))
			if recv < lastRecv || sent < lastSent || epB.BadCells() != 0 {
				t.Errorf("counters went backwards or bad: recv %d→%d sent %d→%d bad %d",
					lastRecv, recv, lastSent, sent, epB.BadCells())
				return
			}
			lastRecv, lastSent = recv, sent
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	done := make(chan struct{}, 2)
	go func() { rtA.Run(); done <- struct{}{} }()
	go func() { rtB.Run(); done <- struct{}{} }()
	<-done
	<-done
	close(stop)
	poller.Wait()

	vcSent, _ := epA.VCStats(VCForChan(0, 1, 2))
	if sent, recv := epA.CellsSent(), epB.CellsReceived(); sent == 0 || sent != recv || vcSent != sent {
		t.Fatalf("cells sent %d (on the channel's VC %d), received %d", sent, vcSent, recv)
	}
}
