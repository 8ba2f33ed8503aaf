package tcpip

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/mts"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TCPNetwork is the real-mode Normal Speed Mode carrier (paper Figure 6's
// NSM tier): NCS messages over genuine TCP connections on loopback. It
// exists for interoperability-class applications, where the paper trades
// performance for the standard protocol stack.
//
// Topology: every endpoint listens; connections are dialed lazily per
// (src, dst) pair and cached. A connection opens with the dialer's 4-byte
// proc id (the hello) and then carries length-prefixed wire messages one way,
// put on the wire by the connection's own writer goroutine (tcpConn).
type TCPNetwork struct {
	mu        sync.Mutex
	endpoints map[transport.ProcID]*TCPEndpoint
}

// NewTCPNetwork returns an empty mesh.
func NewTCPNetwork() *TCPNetwork {
	return &TCPNetwork{endpoints: make(map[transport.ProcID]*TCPEndpoint)}
}

const (
	// readBufSize is each inbound connection's read buffer: one read
	// syscall brings in the length prefix, the header and — for anything up
	// to a few KB, or several pipelined frames — the bodies behind them.
	// Larger bodies bypass the buffer once it is empty.
	readBufSize = 16 << 10
	// maxQueuedBytes is each dialed connection's high-water mark: the frame
	// bytes Send has accepted and the writer has not finished writing —
	// 256 4 KB frames, 16 of 64 KB. A frame that would take the queue past
	// it waits for the writer, which is the one place Send still blocks on
	// the peer; a frame larger than the mark is admitted alone, into an
	// empty queue. Beside the queue, each waiting sender holds the one frame
	// it is waiting to queue.
	maxQueuedBytes = 1 << 20
)

// errBadFrame marks a frame the reader refused: the stream is dropped and
// the refusal counted (BadFrames).
var errBadFrame = errors.New("tcpip: bad frame")

// TCPEndpoint is one process's NSM attachment. It delivers either decoded
// messages through its transport.Inbox into the runtime's scheduler domain
// (SetHandler: the thread driver's single lane, the p4 baseline) — a reader
// that finds the inbox full waits, and the socket's own window pushes back on
// the peer — or raw frames on its reader goroutines (SetFrameHandler: lane
// engines, see transport.FrameCarrier).
//
// No caller of Send executes a socket write. Every dialed connection has a
// transmit queue and one writer goroutine (tcpConn): Send serializes the
// frame, queues it and returns, and the writer puts everything queued on the
// wire in one write or writev — so a thread that holds its proc's CPU token
// gives it up without having waited for the kernel's transmit path, and
// frames queued by several threads before the writer runs share a syscall.
type TCPEndpoint struct {
	transport.Inbox
	net  *TCPNetwork
	proc transport.ProcID
	ln   *net.TCPListener

	mu      sync.Mutex
	conns   map[transport.ProcID]*tcpConn // dialed, by destination
	inbound map[*net.TCPConn]struct{}     // accepted, each with a readLoop
	seq     uint32

	// closed is set once, under mu (so that a reader is either counted in wg
	// before Close waits or never started), and read without it by the send
	// path.
	closed atomic.Bool
	// wg counts acceptLoop, every readLoop and every connection's writer;
	// Close waits for it.
	wg sync.WaitGroup

	// frameH, when set, replaces the Handler path: every reader hands its
	// frames to it directly.
	frameH atomic.Pointer[transport.FrameHandler]

	badFrames atomic.Int64
	sendDrops atomic.Int64
	// Socket writes the writers have issued and the frames those carried.
	writes      atomic.Int64
	wroteFrames atomic.Int64
}

// tcpConn is one dialed connection: the socket, the frames waiting for it
// and the writer goroutine that is the only one to write it. Started by
// connTo with the dial, counted in the endpoint's wg, ended by the
// endpoint's Close (after it has written what was accepted) or by a write
// that fails.
type tcpConn struct {
	e    *TCPEndpoint
	dst  transport.ProcID
	sock *net.TCPConn

	mu    sync.Mutex
	work  sync.Cond // the writer waits here for frames, or for closed
	space sync.Cond // senders wait here at the high-water mark
	// pending holds the frames accepted and not yet taken by the writer, in
	// stream order; the writer swaps it with spare, so the steady state
	// allocates nothing. queued is their bytes plus those of the write in
	// progress (maxQueuedBytes).
	pending []*wire.Buf
	spare   []*wire.Buf
	queued  int
	// closed: no further frame is accepted — the endpoint closed, or a
	// write failed. The writer exits once pending is empty.
	closed bool

	// The writer's own: the writev vector over one batch, and the slice
	// header WriteTo consumes, kept here so that taking its address does not
	// allocate.
	vecs net.Buffers
	wv   net.Buffers
}

// Attach creates an endpoint for proc listening on an ephemeral loopback
// port. Deliveries enter rt's scheduler domain through the endpoint's Inbox
// unless a frame handler is installed.
func (n *TCPNetwork) Attach(proc transport.ProcID, rt *mts.Runtime) (*TCPEndpoint, error) {
	ln, err := net.ListenTCP("tcp4", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("tcpip: listen: %w", err)
	}
	e := &TCPEndpoint{
		net:   n,
		proc:  proc,
		ln:    ln,
		conns: make(map[transport.ProcID]*tcpConn),
	}
	e.Init(rt)
	n.mu.Lock()
	if _, dup := n.endpoints[proc]; dup {
		n.mu.Unlock()
		ln.Close()
		return nil, fmt.Errorf("tcpip: duplicate proc %d", proc)
	}
	n.endpoints[proc] = e
	n.mu.Unlock()
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// Close shuts the listener and every connection, dialed and accepted, and
// returns once acceptLoop, all readLoops and all writers have exited: no
// frame handler call is in progress or begins after that, and the Inbox
// releases what is still queued for the Handler path instead of delivering it.
// Every frame Send accepted before Close is written before its connection
// closes, or counted in SendDrops if that write fails — so Close waits for a
// peer that has stopped reading exactly as long as Send would have; a Send
// after Close, or one that was still waiting for queue space, drops its
// frame (SendDrops). Idempotent.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		e.wg.Wait()
		return nil
	}
	e.closed.Store(true)
	conns, inbound := e.conns, e.inbound
	e.conns, e.inbound = map[transport.ProcID]*tcpConn{}, nil
	e.mu.Unlock()
	e.Inbox.Close()
	err := e.ln.Close()
	for _, c := range conns {
		c.finish()
	}
	for c := range inbound {
		c.Close()
	}
	e.wg.Wait()
	return err
}

// Proc implements transport.Endpoint.
func (e *TCPEndpoint) Proc() transport.ProcID { return e.proc }

// SetFrameHandler implements transport.FrameCarrier. Must be installed
// before any peer sends. Every frame handed over has passed the reader's
// checks (see readFrame), so the handler's decode cannot fail.
func (e *TCPEndpoint) SetFrameHandler(h transport.FrameHandler) {
	e.frameH.Store(&h)
}

// DeliversFromReader implements transport.ReaderDelivery: the frame handler
// runs on the connection's reader goroutine, and a peer's Send waiting at
// the high-water mark — behind a writer blocked on a full socket — waits for
// exactly that goroutine to read on.
func (e *TCPEndpoint) DeliversFromReader() bool { return true }

// BadFrames counts inbound streams dropped because a frame failed the
// reader's checks.
func (e *TCPEndpoint) BadFrames() int64 { return e.badFrames.Load() }

// SendDrops counts frames Send and SendBatch dropped because there was no
// connection to write them to: the endpoint closed, the peer gone or
// refusing, the connection reset — whether the frame was refused at the
// queue, was waiting in it when a write failed, or was part of that write.
func (e *TCPEndpoint) SendDrops() int64 { return e.sendDrops.Load() }

// WriteStats reports the socket writes (write or writev calls) the writers
// have issued and the frames they carried; frames/writes is how many frames
// share a syscall. Both are counted before the write, so whoever has seen a
// frame arrive finds it counted.
func (e *TCPEndpoint) WriteStats() (writes, frames int64) {
	return e.writes.Load(), e.wroteFrames.Load()
}

// Send implements transport.Endpoint: the frame is serialized, queued for
// the connection's writer and Send returns — it executes no socket write,
// and waits only when the connection's queue stands at maxQueuedBytes, for
// the writer (and so, at most, for the peer's reader). On one P the writer
// runs once the sender's goroutine blocks or is preempted; with more it
// starts at once on another. Safe for concurrent callers: frames join the
// queue whole and leave in queue order. A frame on a connection whose write
// fails is lost like any frame on a dead link — counted, the connection
// forgotten, the next Send re-dials — which is what the NCS error-control
// and heartbeat tiers already expect of a silent carrier.
func (e *TCPEndpoint) Send(t *mts.Thread, m *transport.Message) {
	run := [1]*transport.Message{m}
	e.SendBatch(t, run[:])
}

// frameMessage encodes one length-prefixed wire frame into a pooled
// buffer: prefix and message share the buffer and leave in one write (no
// Nagle-provoking split). The single framing authority for Send and
// SendBatch.
func frameMessage(m *transport.Message) *wire.Buf {
	wb := wire.GetBuf(4 + m.WireSize())
	wb.B = append(wb.B, 0, 0, 0, 0)
	wb.B = m.MarshalAppend(wb.B)
	binary.BigEndian.PutUint32(wb.B[:4], uint32(len(wb.B)-4))
	return wb
}

// SendBatch implements transport.BatchSender, and is Send's body: every
// frame of a same-destination run is length-prefixed into its own pooled
// buffer and joins the connection's queue under one hold of its lock, so the
// writer, woken once, finds the run whole and puts it on the wire in a
// single writev — together with whatever other senders queued meanwhile.
func (e *TCPEndpoint) SendBatch(t *mts.Thread, ms []*transport.Message) {
	if len(ms) == 0 {
		return
	}
	to := ms[0].To
	e.mu.Lock()
	for _, m := range ms {
		if m.From != e.proc {
			e.mu.Unlock()
			panic(fmt.Sprintf("tcpip: proc %d sending as %d", e.proc, m.From))
		}
		if m.To != to {
			e.mu.Unlock()
			panic("tcpip: SendBatch run mixes destinations")
		}
		e.seq++
		m.Seq = e.seq
	}
	e.mu.Unlock()
	c := e.connTo(to)
	if c == nil {
		e.sendDrops.Add(int64(len(ms)))
		return
	}
	e.sendDrops.Add(int64(len(ms) - c.enqueue(ms)))
}

// enqueue serializes ms, in order, onto the connection's queue and wakes the
// writer. It returns how many the connection accepted: all of them, unless it
// closed first — then the rest are the caller's to count as dropped.
func (c *tcpConn) enqueue(ms []*transport.Message) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, m := range ms {
		wb := frameMessage(m)
		// Backpressure: at the high-water mark the sender waits for the
		// writer — which it wakes first, since a run's own wake-up comes
		// only at its end.
		for c.queued > 0 && c.queued+len(wb.B) > maxQueuedBytes && !c.closed {
			c.work.Signal()
			c.space.Wait()
		}
		if c.closed {
			wire.PutBuf(wb)
			return i
		}
		c.pending = append(c.pending, wb)
		c.queued += len(wb.B)
	}
	c.work.Signal()
	return len(ms)
}

// writeLoop is the connection's one writer: it takes everything queued, puts
// it on the wire in one write (one frame) or one writev (several), recycles
// the frames and repeats; it sleeps on an empty queue. It ends when the queue
// is empty and the connection closed (finish), or on the first write that
// fails — every frame of that write and every frame queued behind it counted
// dropped — and closes the socket on its way out.
func (c *tcpConn) writeLoop() {
	e := c.e
	defer e.wg.Done()
	c.mu.Lock()
	for {
		for len(c.pending) == 0 && !c.closed {
			c.work.Wait()
		}
		if len(c.pending) == 0 {
			break
		}
		batch := c.pending
		c.pending, c.spare = c.spare[:0], nil
		c.mu.Unlock()

		e.writes.Add(1)
		e.wroteFrames.Add(int64(len(batch)))
		var err error
		if len(batch) == 1 {
			_, err = c.sock.Write(batch[0].B)
		} else {
			for _, wb := range batch {
				c.vecs = append(c.vecs, wb.B)
			}
			// WriteTo consumes its receiver in place by advancing the slice
			// header, so it gets a copy of the header and vecs keeps the
			// array.
			c.wv = c.vecs
			_, err = c.wv.WriteTo(c.sock)
			clear(c.vecs)
			c.vecs, c.wv = c.vecs[:0], nil
		}
		written := 0
		for i, wb := range batch {
			written += len(wb.B)
			wire.PutBuf(wb)
			batch[i] = nil
		}

		c.mu.Lock()
		c.spare = batch[:0]
		c.queued -= written
		if err != nil {
			e.sendDrops.Add(int64(len(batch) + len(c.pending)))
			for i, wb := range c.pending {
				wire.PutBuf(wb)
				c.pending[i] = nil
			}
			c.pending, c.queued, c.closed = c.pending[:0], 0, true
		}
		c.space.Broadcast()
	}
	c.mu.Unlock()
	e.forget(c)
}

// finish stops the connection accepting frames; its writer writes what it
// already holds and exits.
func (c *tcpConn) finish() {
	c.mu.Lock()
	c.closed = true
	c.work.Signal()
	c.space.Broadcast()
	c.mu.Unlock()
}

// connTo returns (dialing if needed) the connection toward dst, or nil when
// there is none to be had: this endpoint is closed, or the peer is not
// listening. A destination nobody ever attached is a bug and panics.
func (e *TCPEndpoint) connTo(dst transport.ProcID) *tcpConn {
	e.mu.Lock()
	c, ok := e.conns[dst]
	e.mu.Unlock()
	if ok || e.closed.Load() {
		return c
	}

	e.net.mu.Lock()
	peer, ok := e.net.endpoints[dst]
	e.net.mu.Unlock()
	if !ok {
		panic(fmt.Sprintf("tcpip: unknown destination proc %d", dst))
	}
	sock, err := net.DialTCP("tcp4", nil, peer.ln.Addr().(*net.TCPAddr))
	if err != nil {
		return nil
	}
	// Identify ourselves so the acceptor can map the inbound stream.
	var hello [4]byte
	binary.BigEndian.PutUint32(hello[:], uint32(int32(e.proc)))
	if _, err := sock.Write(hello[:]); err != nil {
		sock.Close()
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if existing, ok := e.conns[dst]; ok || e.closed.Load() {
		// Lost a dial race (keep the established one), or Close ran
		// meanwhile (existing is nil).
		sock.Close()
		return existing
	}
	c = &tcpConn{e: e, dst: dst, sock: sock}
	c.work.L, c.space.L = &c.mu, &c.mu
	e.conns[dst] = c
	e.wg.Add(1)
	go c.writeLoop()
	return c
}

// forget closes a connection whose writer is done and drops it from the
// cache, unless a newer one already took its place.
func (e *TCPEndpoint) forget(c *tcpConn) {
	e.mu.Lock()
	if e.conns[c.dst] == c {
		delete(e.conns, c.dst)
	}
	e.mu.Unlock()
	c.sock.Close()
}

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.AcceptTCP()
		if err != nil {
			return
		}
		e.mu.Lock()
		if e.closed.Load() {
			e.mu.Unlock()
			conn.Close()
			return
		}
		if e.inbound == nil {
			e.inbound = make(map[*net.TCPConn]struct{})
		}
		e.inbound[conn] = struct{}{}
		e.wg.Add(1)
		e.mu.Unlock()
		go e.readLoop(conn)
	}
}

// readLoop serves one inbound connection until it ends, fails a check, or
// the endpoint closes.
func (e *TCPEndpoint) readLoop(conn *net.TCPConn) {
	defer e.wg.Done()
	defer func() {
		e.mu.Lock()
		delete(e.inbound, conn)
		e.mu.Unlock()
		conn.Close()
	}()
	if e.serve(conn) == errBadFrame {
		e.badFrames.Add(1)
	}
}

// serve reads r — the dialer's hello, then frames — and delivers each frame
// on this goroutine: to the frame handler when one is installed, else
// decoded into the Inbox. It returns why the stream ended.
func (e *TCPEndpoint) serve(r io.Reader) error {
	br := bufio.NewReaderSize(r, readBufSize)
	hello, err := br.Peek(4)
	if err != nil {
		return err
	}
	peer := transport.ProcID(int32(binary.BigEndian.Uint32(hello)))
	br.Discard(4)
	for {
		// The pooled frame travels with the message (zero-copy payload
		// alias); it recycles when the consumer copies the payload out —
		// RecvInto, a control handler — closing the pool loop.
		fb, err := e.readFrame(br, peer)
		if err != nil {
			return err
		}
		if hp := e.frameH.Load(); hp != nil {
			(*hp)(fb)
			continue
		}
		m, err := wire.UnmarshalPooled(fb)
		if err != nil {
			wire.PutBuf(fb)
			return errBadFrame
		}
		if !e.Put(m) {
			return net.ErrClosed
		}
	}
}

// readFrame reads one length-prefixed frame. The peer is not trusted: the
// buffer is sized only after the prefix and the 36-byte wire header behind
// it have been read and checked — a plausible length, the magic, room for
// the control words the flags announce (wire.PeekHeader), addressed to this
// proc, and from the proc the connection's hello named (a forged From on
// channel 0 would otherwise mint a default channel per claimed peer) — and a
// body longer than the pool's largest class is grown as its bytes arrive, so
// memory committed follows bytes received, never a claimed length.
//
// The frame is staged with wire.GetFrame for the header length its flags
// announce, and grown the same way, so its payload — the bytes RecvInto
// copies out — starts 64-byte aligned whatever the frame's size.
func (e *TCPEndpoint) readFrame(br *bufio.Reader, peer transport.ProcID) (*wire.Buf, error) {
	head, err := br.Peek(4)
	if err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(head))
	if n < wire.HeaderSize || n > wire.MaxFrame {
		return nil, errBadFrame
	}
	if head, err = br.Peek(4 + wire.HeaderSize); err != nil {
		return nil, err
	}
	from, to, err := wire.PeekHeader(head[4:], n)
	if err != nil || to != e.proc || from != peer {
		return nil, errBadFrame
	}
	hdrLen := wire.HeaderLen(head[4:])
	br.Discard(4)
	fb := wire.GetFrame(hdrLen, min(n, wire.MaxPooled))
	for len(fb.B) < n {
		if len(fb.B) == cap(fb.B) {
			grown := wire.GetFrame(hdrLen, min(n, 2*cap(fb.B)))
			grown.B = append(grown.B, fb.B...)
			wire.PutBuf(fb)
			fb = grown
		}
		end := min(n, cap(fb.B))
		if _, err := io.ReadFull(br, fb.B[len(fb.B):end]); err != nil {
			wire.PutBuf(fb)
			return nil, err
		}
		fb.B = fb.B[:end]
	}
	return fb, nil
}
