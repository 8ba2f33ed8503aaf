// Package udpatm is the real-mode ATM emulation: NCS messages are chunked
// into AAL5 CPCS-PDUs, segmented into genuine 53-octet ATM cells
// (internal/atm), and carried between processes in UDP datagrams on the
// loopback interface. A datagram's payload is cells laid end to end: one
// AAL5 frame when traffic is sparse, or a *cell train* — consecutive
// frames of the same VC up to the emulated MTU — when a burst is in
// flight, so a burst costs one syscall per train instead of one per frame
// (AAL5 end-of-frame cells delimit the frames inside).
//
// The send path serializes a message once. Send encodes the message header
// into a stack array, wire.Chunker cuts header ++ payload into chunk frames
// without copying them, and the VC's atm.Segmenter lays each frame's cells —
// folding the CRC as the pieces move into cells — straight onto the VC's
// open train, a pooled buffer of the MTU's size that is never regrown; a
// train closes when the next whole frame would not fit. Trains are formed
// here, at enqueue, under the lock that orders the frames; the writer
// goroutine pops whole trains and writes each as one datagram. Nothing else
// holds a payload byte on the way: no marshal buffer, no chunk buffer, no
// buffer per frame.
//
// The receiver works a train at a time too: the reader resolves a VC's
// reassembly state once per run of same-VC cells and hands the run, still
// in the datagram buffer, to atm.Reassembler.PushWire, which moves each
// 48-octet payload straight from the buffer into the message frame the
// consumer will read: before each frame the VC's wire.Assembler gives the
// place its chunk belongs (Place) and the reassembler is lent it, so the
// chunk header lands over the last 8 octets of the message so far — saved,
// and restored when the chunk commits — and the body where the message
// needs it. Committing the chunk copies nothing, and the finished frame,
// laid out with its payload 64-byte aligned, goes to the consumer whole. A
// received payload octet is copied twice in all: into the message frame,
// and out of it by RecvInto. A VC's first message, and a frame longer than
// its place, land in the reassembler's own buffer and are copied in: a
// message frame is sized by what the VC has delivered, never by what a
// cell claims. Every header is still
// HEC-verified — the one shortcut is identity: each VC's reassembler knows
// two headers good, the one a frame's cells carry and its end-of-frame
// one, and a header byte-identical to either needs no HEC, so a frame
// costs none — and every frame still passes CRC-32, length and pad
// checks. PushWire takes a frame as a run: a 4-octet and a 1-octet compare
// per cell, the payload moved and folded into the frame's CRC in the same
// pass, and the end-of-frame cell folded whole and checked against the
// AAL5 residue. The send side is the same shape: each VC's transmit queue
// keeps an atm.Segmenter, its two cell headers computed once, and the
// cells inside one run are a header store each and one move-and-fold
// pass. Each payload octet is read once per side.
//
// This substitutes for the paper's FORE SBA-200 + ATM switch fabric: the
// cell framing, HEC protection, per-VC reassembly and CRC-32 verification
// all execute exactly as they would on the adapter; only the physical
// layer is a UDP socket instead of a TAXI transceiver. Chunk framing and
// message reassembly are delegated to internal/wire, and a train's buffer
// recycles once the kernel has copied the datagram.
package udpatm

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/atm"
	"repro/internal/list"
	"repro/internal/mts"
	"repro/internal/transport"
	"repro/internal/wire"
)

// MaxChunk is the message payload carried per AAL5 frame. The frame's
// cells (MaxChunk/48 · 53 bytes ≈ 9 KB) stay well under the UDP datagram
// limit.
const MaxChunk = 8192 - wire.ChunkHeaderSize

// Network is a mesh of UDP endpoints on loopback.
type Network struct {
	mu        sync.Mutex
	endpoints map[transport.ProcID]*Endpoint
}

// NewNetwork returns an empty mesh.
func NewNetwork() *Network {
	return &Network{endpoints: make(map[transport.ProcID]*Endpoint)}
}

// train is one datagram under construction or awaiting the writer: whole
// AAL5 frames of one VC, cells end to end, in a pooled buffer of
// maxTrainBytes capacity that is never regrown.
type train struct {
	buf    *wire.Buf
	frames int
}

// vcTx is one VC's transmit queue: cell trains awaiting the writer.
type vcTx struct {
	dst *net.UDPAddr
	seg atm.Segmenter // the VC's two cell headers, computed once

	// closed holds the trains no further frame fits; open, when its buf is
	// non-nil, is the newest train, which enqueueFrames is still extending
	// and the writer may take as it stands. frames counts the frames in
	// both.
	closed list.FIFO[train]
	open   train
	frames int
}

// vcRx is one VC's receive state: cell reassembly (AAL5 frames) feeding
// chunk assembly (messages). Once the VC has completed a message, the
// reassembler gathers each frame straight into the assembler's message
// frame; its own buffer takes the VC's first message and any frame longer
// than the place it was lent.
type vcRx struct {
	reasm *atm.Reassembler
	asm   wire.Assembler
}

// Endpoint is one process's ATM-over-UDP attachment. Its reader delivers
// each reassembled message one of two ways. With a frame handler installed
// (SetFrameHandler: a proc on lane engines) it hands over the message frame
// itself, on the reader goroutine, once the frame's wire header checks out.
// Otherwise (SetHandler: a proc at one lane, under its send and receive
// system threads) it decodes the message into the transport.Inbox, which
// carries it into the runtime's scheduler domain. A reader that finds the
// inbox full, or whose handler is busy, reads nothing meanwhile: datagrams
// queue in the socket and drop once its buffer is full, a loss NCS error
// control recovers.
//
// The carrier needs no transport.ReaderDelivery: Send waits only at
// maxQueuedFrames, and only for the endpoint's own writer goroutine, which
// waits for nobody (a UDP write to a full socket buffer drops the datagram
// rather than block). So a reader that runs the lane engine's pass, and
// sends from it, can always finish.
type Endpoint struct {
	transport.Inbox
	net  *Network
	proc transport.ProcID
	conn *net.UDPConn
	// reader counts readLoop; Close waits for it.
	reader sync.WaitGroup

	mu  sync.Mutex
	seq uint32

	// Transmit side: per-VC queues drained by a single writer goroutine
	// (FIFO within a VC). NCS channels map onto VCs (channel ID = VPI).
	// Send blocks once maxQueuedFrames are outstanding (spaceCond) — the
	// backpressure the old synchronous write loop provided implicitly —
	// and Close drains the queues before closing the socket (writerDone).
	txMu       sync.Mutex
	txCond     *sync.Cond // work available
	spaceCond  *sync.Cond // queue space available
	queues     []*vcTx    // creation order, the writer's drain order
	txByVC     map[atm.VC]*vcTx
	queued     int // frames across all VC queues
	txClosed   bool
	writerDone chan struct{}

	// Receive-side per-VC state, touched only by the reader goroutine.
	rx map[atm.VC]*vcRx

	// frameH, when set, replaces the Inbox path: the reader hands each
	// completed message frame to it (SetFrameHandler).
	frameH atomic.Pointer[transport.FrameHandler]

	// Receive-side fault injection (guarded by mu): each arriving datagram
	// — one AAL5 frame, data or control alike — is dropped independently
	// with rxDropRate probability from the seeded generator, emulating a
	// lossy fabric. Chaos tests use it to prove NCS flow/error control
	// recover end to end.
	rxDropRate float64
	rxDropRNG  *rand.Rand
	rxDropped  int64
	// blackhole, while set, drops every arriving frame (SetBlackhole).
	blackhole bool

	// Cell counters: cellsSent is the writer goroutine's, cellsRecv and
	// badCells the reader's; accessors on any goroutine read them without a
	// lock.
	cellsSent atomic.Int64
	cellsRecv atomic.Int64
	badCells  atomic.Int64

	// Cell-train accounting (guarded by txMu): datagrams that carried more
	// than one AAL5 frame, the total frames they carried, and the largest
	// train in cells.
	trains      int64
	trainFrames int64
	maxTrain    int64

	closed chan struct{}
}

// Attach creates an endpoint for proc bound to an ephemeral loopback port.
// Deliveries enter rt's scheduler domain through the endpoint's Inbox unless
// a frame handler is installed.
func (n *Network) Attach(proc transport.ProcID, rt *mts.Runtime) (*Endpoint, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("udpatm: listen: %w", err)
	}
	// A large message bursts its AAL5 frames back to back (a 1 MB send is
	// ~130 × 9 KB datagrams); size the socket buffers so the kernel can
	// absorb the burst instead of silently dropping frames. The kernel
	// caps these at net.core.{r,w}mem_max — beyond that the fabric is
	// genuinely lossy, which is what NCS error control exists for.
	conn.SetReadBuffer(8 << 20)
	conn.SetWriteBuffer(4 << 20)
	e := newEndpoint(n, proc, rt, conn)
	n.mu.Lock()
	if _, dup := n.endpoints[proc]; dup {
		n.mu.Unlock()
		conn.Close()
		return nil, fmt.Errorf("udpatm: duplicate proc %d", proc)
	}
	n.endpoints[proc] = e
	n.mu.Unlock()
	e.reader.Add(1)
	go e.readLoop()
	go e.writeLoop()
	return e, nil
}

// newEndpoint builds an endpoint over conn with neither loop started.
func newEndpoint(n *Network, proc transport.ProcID, rt *mts.Runtime, conn *net.UDPConn) *Endpoint {
	e := &Endpoint{
		net:        n,
		proc:       proc,
		conn:       conn,
		txByVC:     make(map[atm.VC]*vcTx),
		writerDone: make(chan struct{}),
		rx:         make(map[atm.VC]*vcRx),
		closed:     make(chan struct{}),
	}
	e.txCond = sync.NewCond(&e.txMu)
	e.spaceCond = sync.NewCond(&e.txMu)
	e.Init(rt)
	return e
}

// Close writes every frame Send accepted, closes the Inbox — releasing what
// is queued and a reader waiting in it — and the socket, and returns once the
// reader has exited: no frame handler call is in progress or begins after
// that. Idempotent.
func (e *Endpoint) Close() error {
	select {
	case <-e.closed:
		return nil
	default:
	}
	close(e.closed)
	e.txMu.Lock()
	e.txClosed = true
	e.txCond.Broadcast()
	e.spaceCond.Broadcast()
	e.txMu.Unlock()
	// Drain before closing the socket: every frame Send accepted is
	// written (the guarantee the old synchronous write loop gave).
	<-e.writerDone
	e.Inbox.Close()
	err := e.conn.Close()
	e.reader.Wait()
	return err
}

// Proc implements transport.Endpoint.
func (e *Endpoint) Proc() transport.ProcID { return e.proc }

// SetFrameHandler implements transport.FrameCarrier. Must be installed
// before any peer sends. The handler runs on the reader goroutine, and only
// with a frame whose wire header has passed wire.PeekHeader, so its decode
// cannot fail; a frame that fails the check is dropped and counted in
// BadCells.
func (e *Endpoint) SetFrameHandler(h transport.FrameHandler) {
	e.frameH.Store(&h)
}

// SetRecvDropRate makes the endpoint drop each arriving AAL5 frame (one
// UDP datagram) independently with the given probability, using a
// deterministic seed; rate 0 disables loss. Loss is frame-level and
// class-blind — data, credits, and acks all die alike, which is exactly
// the regime the cumulative-credit flow protocol and the error-control
// tier exist to survive.
func (e *Endpoint) SetRecvDropRate(rate float64, seed int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rxDropRate = rate
	e.rxDropRNG = rand.New(rand.NewSource(seed))
}

// RecvDropped returns how many arriving frames fault injection discarded.
func (e *Endpoint) RecvDropped() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rxDropped
}

// SetBlackhole toggles receive-side blackholing: while set, every arriving
// AAL5 frame is dropped (and counted in RecvDropped) before reassembly —
// the receive half of a crashed or partitioned host for chaos tests over
// the real UDP carrier.
func (e *Endpoint) SetBlackhole(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.blackhole = on
}

// dropArrival decides fault injection for one arriving frame.
func (e *Endpoint) dropArrival() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.blackhole {
		e.rxDropped++
		return true
	}
	if e.rxDropRate <= 0 || e.rxDropRNG.Float64() >= e.rxDropRate {
		return false
	}
	e.rxDropped++
	return true
}

// CellsSent returns transmitted cell count.
func (e *Endpoint) CellsSent() int64 { return e.cellsSent.Load() }

// TrainStats reports cell-train coalescing: how many datagrams carried
// more than one AAL5 frame, the total frames those trains carried, and the
// largest train seen (in cells). A single-frame datagram is not a train.
func (e *Endpoint) TrainStats() (trains, frames, maxCells int64) {
	e.txMu.Lock()
	defer e.txMu.Unlock()
	return e.trains, e.trainFrames, e.maxTrain
}

// CellsReceived returns received cell count.
func (e *Endpoint) CellsReceived() int64 { return e.cellsRecv.Load() }

// BadCells returns cells rejected by HEC or reassembly checks.
func (e *Endpoint) BadCells() int64 { return e.badCells.Load() }

// addrOf resolves a peer's UDP address.
func (e *Endpoint) addrOf(p transport.ProcID) *net.UDPAddr {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	if peer, ok := e.net.endpoints[p]; ok {
		return peer.conn.LocalAddr().(*net.UDPAddr)
	}
	return nil
}

// BindChannel implements transport.ChannelRouter. The UDP fabric has no
// switch tables to program — the per-VC transmit queue materializes lazily
// on first send — so connecting a signaled call needs no work here.
func (e *Endpoint) BindChannel(peer transport.ProcID, ch wire.ChannelID) {}

// UnbindChannel implements transport.ChannelRouter: a released call's
// transmit queue is dropped so channel churn cannot accrete transmit state.
// Only the transmit side is touched (under txMu); receive-side reassembly
// state belongs to the reader goroutine and is not released here. Its worst
// case is one partial CPCS-PDU (up to 64 KB) in the reassembler's own
// buffer plus one message frame (up to wire.MaxFrame), per VC the reader
// has ever seen a valid header for, and nothing caps how many VCs that is;
// a message frame is drawn only for a VC that has completed a message, and
// grows with the octets the VC has delivered. The queue is left in place if
// frames are still pending — the writer drains every accepted frame (the
// Close guarantee), and a reused channel ID maps back onto the same VC
// anyway.
func (e *Endpoint) UnbindChannel(peer transport.ProcID, ch wire.ChannelID) {
	if ch == 0 {
		return
	}
	vc := atm.VCForChan(int(e.proc), int(peer), uint16(ch))
	e.txMu.Lock()
	defer e.txMu.Unlock()
	q, ok := e.txByVC[vc]
	if !ok || q.frames > 0 {
		return
	}
	delete(e.txByVC, vc)
	for i, x := range e.queues {
		if x == q {
			e.queues = append(e.queues[:i], e.queues[i+1:]...)
			break
		}
	}
}

// queue returns vc's transmit queue, creating it. Callers hold txMu.
func (e *Endpoint) queue(vc atm.VC) *vcTx {
	q, ok := e.txByVC[vc]
	if !ok {
		q = &vcTx{seg: atm.NewSegmenter(vc)}
		e.txByVC[vc] = q
		e.queues = append(e.queues, q)
	}
	return q
}

// Send implements transport.Endpoint: the message is chunked, each chunk
// segmented into AAL5 cells, and each frame is laid onto the open cell train
// of its VC — the VC the message's channel rides. A single writer drains the
// VCs, a train per datagram. The message is fully serialized before Send
// returns, so the caller may reuse m and m.Data; a train's buffer recycles
// once the kernel has copied the datagram.
func (e *Endpoint) Send(t *mts.Thread, m *transport.Message) {
	dst := e.addrOf(m.To)
	if dst == nil {
		panic(fmt.Sprintf("udpatm: unknown destination proc %d", m.To))
	}
	e.enqueueFrames(m, dst)
}

// SendBatch implements transport.BatchSender: the destination resolves
// once for the whole same-destination run, and the burst's frames land on
// the VC's trains back to back, which is what makes the trains long.
func (e *Endpoint) SendBatch(t *mts.Thread, ms []*transport.Message) {
	if len(ms) == 0 {
		return
	}
	dst := e.addrOf(ms[0].To)
	if dst == nil {
		panic(fmt.Sprintf("udpatm: unknown destination proc %d", ms[0].To))
	}
	for _, m := range ms {
		if m.To != ms[0].To {
			panic("udpatm: SendBatch run mixes destinations")
		}
		e.enqueueFrames(m, dst)
	}
}

// enqueueFrames serializes one message, once, into the datagrams that will
// carry it; the shared body of Send and SendBatch. The message header is
// encoded into a stack array, the chunker cuts header ++ m.Data into chunk
// frames without copying them, and each frame's cells are laid from those
// pieces straight onto the VC's open train. Trains are consecutive frames of
// one VC, so forming them here, under the lock that already orders the
// frames, puts the same bytes on the wire as coalescing queued frames in the
// writer did — without the frame buffers and the copies between them.
func (e *Endpoint) enqueueFrames(m *transport.Message, dst *net.UDPAddr) {
	if m.From != e.proc {
		panic(fmt.Sprintf("udpatm: proc %d sending as %d", e.proc, m.From))
	}
	e.mu.Lock()
	e.seq++
	m.Seq = e.seq
	e.mu.Unlock()

	var hb [wire.MaxHeaderSize]byte
	vc := atm.VCForChan(int(m.From), int(m.To), uint16(m.Channel))
	ck := wire.NewChunkerRuns(m.AppendHeader(hb[:0]), m.Data, m.Seq, MaxChunk)
	e.txMu.Lock()
	defer e.txMu.Unlock()
	q := e.queue(vc)
	q.dst = dst
	for {
		ch, head, body, ok := ck.Parts()
		if !ok {
			return
		}
		// Backpressure: past the high-water mark the producer waits for
		// the writer, pacing senders the way the old synchronous write
		// loop did implicitly.
		for e.queued >= maxQueuedFrames && !e.txClosed {
			e.spaceCond.Wait()
		}
		if e.txClosed {
			// The writer is gone; accepting frames would silently lose
			// them. Fail as loudly as the old write-to-closed-socket
			// path did.
			panic(fmt.Sprintf("udpatm: proc %d Send after Close", e.proc))
		}
		// A train closes when the next whole frame does not fit it. (Not
		// before the wait above: the writer may have taken the open train
		// meanwhile.)
		need := atm.CellCount(len(ch)+len(head)+len(body)) * atm.CellSize
		if q.open.buf != nil && len(q.open.buf.B)+need > maxTrainBytes {
			q.closed.Push(q.open)
			q.open = train{}
		}
		if q.open.buf == nil {
			q.open.buf = wire.GetBuf(maxTrainBytes)
		}
		cells, err := q.seg.AppendCellRuns(q.open.buf.B, ch[:], head, body)
		if err != nil {
			panic("udpatm: segment: " + err.Error())
		}
		q.open.buf.B = cells
		q.open.frames++
		q.frames++
		e.queued++
		e.txCond.Signal()
	}
}

// maxQueuedFrames bounds frames outstanding across all VC transmit queues;
// past it Send waits for the writer. One VC packs them six or seven to a
// train (~2.3 MB of cells in ~40 train buffers); the worst case is a frame
// each on 256 different VCs, every one holding a train buffer of the 64 KB
// pool class: 16 MB.
const maxQueuedFrames = 256

// maxTrainBytes bounds one cell-train datagram: consecutive AAL5 frames of
// one VC are laid end to end (cells back to back) in a single UDP datagram
// up to this size — the emulated MTU of the UDP "physical layer". It stays
// under both the 64 KB read buffer and the UDP payload ceiling, and is many
// times the largest frame (MaxChunk's 171 cells, 9,063 octets), so every
// frame fits an empty train. Receivers need no train awareness: AAL5
// end-of-frame cells delimit frames inside the train exactly as on a real
// link.
const maxTrainBytes = 60 * 1024

// pickQueue returns the first non-empty transmit queue in creation order.
// Callers hold txMu.
func (e *Endpoint) pickQueue() *vcTx {
	for _, q := range e.queues {
		if q.frames > 0 {
			return q
		}
	}
	return nil
}

// writeLoop is the single transmit drain: it services per-VC queues in
// creation order, a whole train at a time — the oldest closed one, else the
// open one as it stands — and writes it as one UDP datagram. The cells ride
// back to back exactly as a real adapter would clock them out, and AAL5
// end-of-frame markers keep the frame boundaries. It exits — signalling
// writerDone — only once the endpoint is closed *and* the queues are
// drained, so Close never loses accepted frames.
func (e *Endpoint) writeLoop() {
	defer close(e.writerDone)
	e.txMu.Lock()
	for {
		q := e.pickQueue()
		if q == nil {
			if e.txClosed {
				e.txMu.Unlock()
				return
			}
			e.txCond.Wait()
			continue
		}
		var tr train
		if q.closed.Size() > 0 {
			tr = q.closed.Pop()
		} else {
			tr, q.open = q.open, train{}
		}
		q.frames -= tr.frames
		e.queued -= tr.frames
		e.spaceCond.Broadcast()
		if tr.frames > 1 {
			e.trains++
			e.trainFrames += int64(tr.frames)
			if cells := int64(len(tr.buf.B) / atm.CellSize); cells > e.maxTrain {
				e.maxTrain = cells
			}
		}
		dst := q.dst
		e.txMu.Unlock()

		// Account before the write: once the kernel has the datagram the
		// peer may act on it, and whoever learns of its arrival must already
		// find its cells counted.
		cells := int64(len(tr.buf.B) / atm.CellSize)
		e.cellsSent.Add(cells)
		if _, err := e.conn.WriteToUDP(tr.buf.B, dst); err != nil {
			select {
			case <-e.closed:
				// Not handed to the kernel after all.
				e.cellsSent.Add(-cells)
			default:
				panic("udpatm: write: " + err.Error())
			}
		}
		wire.PutBuf(tr.buf)
		e.txMu.Lock()
	}
}

// readLoop receives datagrams and hands each — after the per-datagram
// fault-injection draw — to receiveTrain, until the socket closes.
func (e *Endpoint) readLoop() {
	defer e.reader.Done()
	buf := make([]byte, 64*1024)
	for {
		// AddrPort, not ReadFromUDP: the source is not used, and that form
		// allocates a *net.UDPAddr per datagram to report it.
		n, _, err := e.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		if n%atm.CellSize != 0 {
			e.badCells.Add(1)
			continue
		}
		if e.dropArrival() {
			continue
		}
		e.receiveTrain(buf[:n])
	}
}

// chunkFrame is the most reassembly room a chunk frame from a peer of this
// package takes: MaxChunk's frame, chunk header, pad and trailer, is 171
// cell payloads. The reader lends each frame that much room in the message
// frame, or up to the predicted end of the message; a longer one finishes
// in the reassembler's own buffer and is copied in. So do a VC's frames
// until it has completed a message: until then Place lends nothing.
var chunkFrame = atm.CellCount(wire.ChunkHeaderSize+MaxChunk) * atm.PayloadSize

// receiveTrain validates and reassembles one datagram's cells. The VC's
// receive state resolves once per run of same-VC cells — in the common
// case once per datagram — and the run is reassembled in place by PushWire,
// each frame gathered at the spot in the message frame its chunk belongs
// (wire.Assembler.Place, lent to the reassembler); completed frames go on
// to deliverChunk.
func (e *Endpoint) receiveTrain(train []byte) {
	var rx *vcRx
	for len(train) >= atm.CellSize {
		if rx == nil {
			h, err := atm.DecodeHeader(train)
			if err != nil {
				e.badCells.Add(1)
				train = train[atm.CellSize:]
				continue
			}
			if rx = e.rx[h.VC()]; rx == nil {
				rx = &vcRx{reasm: atm.NewReassembler(h.VC())}
				e.rx[h.VC()] = rx
			}
		}
		if p := rx.asm.Place(chunkFrame, atm.MaxTail); p != nil {
			rx.reasm.Lend(p) // refused while a frame is open
		}
		n, chunk, done, err := rx.reasm.PushWire(train)
		train = train[n:]
		// Count before delivering: whoever learns a message arrived must
		// already find its cells counted.
		cells := int64(n / atm.CellSize)
		if err == atm.ErrHEC {
			cells-- // consumed, but never a valid cell
		}
		e.cellsRecv.Add(cells)
		switch {
		case done:
			if !e.deliverChunk(rx, chunk) {
				e.badCells.Add(1)
			}
		case err == atm.ErrVC:
			rx = nil // the next cell opens another VC's run
		case err != nil:
			// A frame that failed at the place leaves it out: the next
			// frame lands there too, and Push restores what they overwrote.
			e.badCells.Add(1)
		}
	}
}

// deliverChunk runs per reassembled AAL5 frame: chunk assembly on the
// frame's VC, and a completed message goes to the frame handler when one is
// installed — the message frame itself, once wire.PeekHeader has accepted
// its header — or is decoded into the Inbox. The frame was gathered in
// place, so committing the chunk copies nothing; the message frame, laid out
// as wire.GetFrame lays one so the payload the consumer copies out starts
// 64-byte aligned, travels with the message, and the consumer recycles it
// (RecvInto, control handlers). A received payload octet is copied twice on
// its way to the application: from the datagram into the message frame (the
// reassembler), and out of it (RecvInto). deliverChunk reports false if the
// chunk or the message it completed was malformed, or if the message would
// have outgrown wire.MaxFrame. (A VC's first message, and a frame longer
// than its place, are copied in once more, by Push.)
func (e *Endpoint) deliverChunk(rx *vcRx, chunk []byte) bool {
	_, done, err := rx.asm.Push(chunk)
	if err != nil {
		return false
	}
	if !done {
		return true
	}
	fb := rx.asm.Take()
	if hp := e.frameH.Load(); hp != nil {
		// The handler decodes without a second opinion and panics on a
		// frame that fails to: pass on only a header it will accept.
		if _, _, err := wire.PeekHeader(fb.B, len(fb.B)); err != nil {
			wire.PutBuf(fb)
			return false
		}
		(*hp)(fb)
		return true
	}
	m, err := wire.UnmarshalPooled(fb)
	if err != nil {
		wire.PutBuf(fb)
		return false
	}
	e.Put(m)
	return true
}
