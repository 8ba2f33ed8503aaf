package udpatm

import (
	"bytes"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/mts"
	"repro/internal/transport"
	"repro/internal/wire"
)

// messageCells builds the AAL5 frames (wire cells, end to end) that carry a
// message from proc 0 to proc 1 on vc, exactly as enqueueFrames would.
func messageCells(vc atm.VC, seq uint32, data []byte) []byte {
	m := &transport.Message{From: 0, To: 1, Seq: seq, Data: data}
	return frameCells(vc, seq, m.MarshalAppend(nil))
}

// frameCells is the cells that carry one message frame, whatever its bytes:
// chunked as message seq, each chunk an AAL5 frame on vc.
func frameCells(vc atm.VC, seq uint32, frame []byte) (cells []byte) {
	ck := wire.NewChunker(frame, seq, MaxChunk)
	for {
		chunk, ok := ck.Next(nil)
		if !ok {
			return cells
		}
		var err error
		if cells, err = atm.AppendCells(cells, vc, chunk); err != nil {
			panic(err) // a chunk is far below MaxPDU
		}
	}
}

// frameFor is messageCells for a message small enough to need one frame.
func frameFor(t *testing.T, vc atm.VC, seq uint32, data []byte) []byte {
	t.Helper()
	if n := framesOf(len(data)); n != 1 {
		t.Fatalf("message of %d octets needs %d chunks; the train tests want one", len(data), n)
	}
	return messageCells(vc, seq, data)
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
	fa := frameFor(t, atm.VCForChan(0, 1, 0), 1, a)
	fb := frameFor(t, atm.VCForChan(0, 1, 5), 2, b)
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
	vc := atm.VCFor(0, 1)
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
	vc := atm.VCFor(0, 1)
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
	vc := atm.VCFor(0, 1)
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

	if sent, recv := epA.CellsSent(), epB.CellsReceived(); sent == 0 || sent != recv {
		t.Fatalf("cells sent %d, received %d", sent, recv)
	}
}

// txHarness is a sending endpoint whose writer the test starts when it
// chooses, and a bare UDP socket standing in for proc 1, so a test sees the
// datagrams themselves: what was put in each, and in what order.
type txHarness struct {
	t    *testing.T
	ep   *Endpoint
	sink *net.UDPConn
}

func newTxHarness(t *testing.T) *txHarness {
	t.Helper()
	listen := func() *net.UDPConn {
		c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	netw := NewNetwork()
	h := &txHarness{t: t, sink: listen()}
	h.sink.SetReadBuffer(4 << 20)
	h.ep = newEndpoint(netw, 0, nil, listen())
	netw.endpoints[0] = h.ep
	netw.endpoints[1] = &Endpoint{conn: h.sink} // only its address is used
	t.Cleanup(func() { h.sink.Close() })
	return h
}

func (h *txHarness) send(ch wire.ChannelID, data []byte) {
	h.ep.Send(nil, &transport.Message{From: 0, To: 1, Channel: ch, Data: data})
}

// datagrams reads until n frames have arrived and returns the datagrams
// that carried them, having checked what must hold of every datagram: within
// the emulated MTU, whole cells, one VC, and whole frames — it ends on an
// end-of-frame cell.
func (h *txHarness) datagrams(frames int) (dgrams [][]byte) {
	h.t.Helper()
	buf := make([]byte, 64*1024)
	for frames > 0 {
		h.sink.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := h.sink.Read(buf)
		if err != nil {
			h.t.Fatalf("%d frames still expected: %v", frames, err)
		}
		d := append([]byte(nil), buf[:n]...)
		if n == 0 || n > maxTrainBytes || n%atm.CellSize != 0 {
			h.t.Fatalf("datagram of %d octets (bound %d, cell %d)", n, maxTrainBytes, atm.CellSize)
		}
		first, _ := atm.DecodeHeader(d)
		for off := 0; off < n; off += atm.CellSize {
			hdr, err := atm.DecodeHeader(d[off:])
			if err != nil || hdr.VC() != first.VC() {
				h.t.Fatalf("cell at %d: header %+v err %v in a train of VC %v", off, hdr, err, first.VC())
			}
			if hdr.EndOfFrame() {
				frames--
			} else if off+atm.CellSize == n {
				h.t.Fatal("datagram ends inside a frame")
			}
		}
		dgrams = append(dgrams, d)
	}
	return dgrams
}

func vcOf(d []byte) atm.VC {
	h, _ := atm.DecodeHeader(d)
	return h.VC()
}

// messages reassembles the data payloads the datagrams carry, per VC, in
// arrival order.
func (h *txHarness) messages(dgrams [][]byte) map[atm.VC][]string {
	h.t.Helper()
	rx := map[atm.VC]*vcRx{}
	out := map[atm.VC][]string{}
	for _, d := range dgrams {
		vc := vcOf(d)
		if rx[vc] == nil {
			rx[vc] = &vcRx{reasm: atm.NewReassembler(vc)}
		}
		for len(d) > 0 {
			n, chunk, done, err := rx[vc].reasm.PushWire(d)
			if err != nil || !done {
				h.t.Fatalf("VC %v: reassembly done=%v err=%v", vc, done, err)
			}
			d = d[n:]
			msg, done, err := rx[vc].asm.Push(chunk)
			if err != nil {
				h.t.Fatalf("VC %v: chunk assembly: %v", vc, err)
			}
			if done {
				m, err := wire.Unmarshal(msg)
				if err != nil {
					h.t.Fatal(err)
				}
				out[vc] = append(out[vc], string(m.Data))
			}
		}
	}
	return out
}

func framesOf(dataLen int) int {
	return wire.Fragments(wire.HeaderSize+dataLen, MaxChunk)
}

// TestTrainsAreWholeFramesInOrder: two VCs' messages — bulk ones of many
// frames, short ones — enqueued interleaved, with the writer held back so the
// trains fill and with it running so they are taken half-built. Every
// datagram is whole frames of one VC within the MTU, and each VC's messages
// arrive complete and in the order they were sent.
func TestTrainsAreWholeFramesInOrder(t *testing.T) {
	for _, live := range []bool{false, true} {
		h := newTxHarness(t)
		if live {
			go h.ep.writeLoop()
		}
		want := map[atm.VC][]string{}
		frames := 0
		for i := 0; i < 12; i++ {
			ch := wire.ChannelID(i % 2 * 5)
			data := body(byte('a'+i), []int{100_000, 300, 8140, 8141, 0, 40_000}[i%6])
			h.send(ch, data)
			vc := atm.VCForChan(0, 1, uint16(ch))
			want[vc] = append(want[vc], string(data))
			frames += framesOf(len(data))
		}
		if !live {
			go h.ep.writeLoop()
		}
		dgrams := h.datagrams(frames)
		got := h.messages(dgrams)
		for vc, msgs := range want {
			if len(got[vc]) != len(msgs) {
				t.Fatalf("live=%v VC %v: %d messages arrived, want %d", live, vc, len(got[vc]), len(msgs))
			}
			for i := range msgs {
				if got[vc][i] != msgs[i] {
					t.Fatalf("live=%v VC %v message %d: %d octets arrived, want %d — out of order or corrupt", live, vc, i, len(got[vc][i]), len(msgs[i]))
				}
			}
		}
		trains, inTrains, maxCells := h.ep.TrainStats()
		if !live && (trains == 0 || inTrains <= trains || int(maxCells)*atm.CellSize > maxTrainBytes) {
			t.Fatalf("held-back writer: %d trains of %d frames, largest %d cells", trains, inTrains, maxCells)
		}
		if err := h.ep.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCloseWritesOpenTrain: Close drains every accepted frame, and a train
// that never filled counts.
func TestCloseWritesOpenTrain(t *testing.T) {
	h := newTxHarness(t)
	h.send(0, body('x', 300))
	h.send(0, body('y', 300))
	closed := make(chan error)
	go func() { closed <- h.ep.Close() }()
	for { // the writer starts only once Close is waiting for it
		h.ep.txMu.Lock()
		shut := h.ep.txClosed
		h.ep.txMu.Unlock()
		if shut {
			break
		}
		time.Sleep(time.Millisecond)
	}
	go h.ep.writeLoop()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	got := h.messages(h.datagrams(2))[atm.VCFor(0, 1)]
	if len(got) != 2 || got[0] != string(body('x', 300)) || got[1] != string(body('y', 300)) {
		t.Fatalf("after Close the peer holds %d messages, want x then y", len(got))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Send after Close did not panic")
		}
	}()
	h.send(0, nil)
}

// TestBackpressureCountsFrames: with the writer held back a sender blocks in
// the Send that would queue frame maxQueuedFrames+1 — frames, not trains —
// and every frame it was made to wait for still arrives.
func TestBackpressureCountsFrames(t *testing.T) {
	h := newTxHarness(t)
	const extra = 10
	var sent atomic.Int64
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for i := 0; i < maxQueuedFrames+extra; i++ {
			h.send(0, body('b', 1000))
			sent.Add(1)
		}
	}()
	for sent.Load() < maxQueuedFrames {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // long enough for an unblocked sender to run on
	h.ep.txMu.Lock()
	queued := h.ep.queued
	h.ep.txMu.Unlock()
	if n := sent.Load(); n != maxQueuedFrames || queued != maxQueuedFrames {
		t.Fatalf("%d Sends returned with %d frames queued; the bound is %d", n, queued, maxQueuedFrames)
	}
	go h.ep.writeLoop()
	h.datagrams(maxQueuedFrames + extra)
	<-finished
	h.ep.Close()
}

// TestSendAllocs: a 16 KB Send — header encode, chunking, segmentation into
// the open train, the writer's pass — with a peer that drains its socket
// allocates next to nothing once the train buffers are in the pool: no
// marshal buffer, no chunk buffer, no buffer per frame.
func TestSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is leaky under the race detector; the train buffers come from one")
	}
	h := newTxHarness(t)
	go h.ep.writeLoop()
	go func() {
		buf := make([]byte, 64*1024)
		for {
			if _, err := h.sink.Read(buf); err != nil {
				return
			}
		}
	}()
	m := &transport.Message{From: 0, To: 1, Channel: 3, Data: make([]byte, 16*1024)}
	const warm, runs = 200, 2000
	var ms runtime.MemStats
	for i := 0; i < warm+runs; i++ {
		if i == warm {
			runtime.ReadMemStats(&ms)
		}
		h.ep.Send(nil, m)
	}
	before := ms.Mallocs
	runtime.ReadMemStats(&ms)
	// testing.AllocsPerRun rounds down to whole allocations; this limit is
	// a fraction of one.
	if avg := float64(ms.Mallocs-before) / runs; avg >= 0.1 {
		t.Fatalf("16 KB Send allocates %.3f per message, want < 0.1", avg)
	}
	h.ep.Close()
}
