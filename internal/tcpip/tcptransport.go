package tcpip

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

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
// (src, dst) pair and cached. Messages are length-prefixed wire messages.
type TCPNetwork struct {
	mu        sync.Mutex
	endpoints map[transport.ProcID]*TCPEndpoint
}

// NewTCPNetwork returns an empty mesh.
func NewTCPNetwork() *TCPNetwork {
	return &TCPNetwork{endpoints: make(map[transport.ProcID]*TCPEndpoint)}
}

// TCPEndpoint is one process's NSM attachment.
type TCPEndpoint struct {
	net  *TCPNetwork
	proc transport.ProcID
	rt   *mts.Runtime
	ln   *net.TCPListener

	mu      sync.Mutex
	handler transport.Handler
	conns   map[transport.ProcID]*net.TCPConn
	seq     uint32
	closed  bool

	// batchBufs/batchVecs stage one SendBatch run's pooled frames and the
	// writev vector over them. Only the owning process's send system
	// thread calls Send/SendBatch, so no lock guards them.
	batchBufs []*wire.Buf
	batchVecs net.Buffers
}

// Attach creates an endpoint for proc listening on an ephemeral loopback
// port. Deliveries are Posted into rt's scheduler domain.
func (n *TCPNetwork) Attach(proc transport.ProcID, rt *mts.Runtime) (*TCPEndpoint, error) {
	ln, err := net.ListenTCP("tcp4", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("tcpip: listen: %w", err)
	}
	e := &TCPEndpoint{
		net:   n,
		proc:  proc,
		rt:    rt,
		ln:    ln,
		conns: make(map[transport.ProcID]*net.TCPConn),
	}
	n.mu.Lock()
	if _, dup := n.endpoints[proc]; dup {
		n.mu.Unlock()
		ln.Close()
		return nil, fmt.Errorf("tcpip: duplicate proc %d", proc)
	}
	n.endpoints[proc] = e
	n.mu.Unlock()
	go e.acceptLoop()
	return e, nil
}

// Close shuts the listener and all connections.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	conns := e.conns
	e.conns = map[transport.ProcID]*net.TCPConn{}
	e.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return e.ln.Close()
}

// Proc implements transport.Endpoint.
func (e *TCPEndpoint) Proc() transport.ProcID { return e.proc }

// SetHandler implements transport.Endpoint.
func (e *TCPEndpoint) SetHandler(h transport.Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

// Send implements transport.Endpoint: blocking socket write, exactly the
// p4-era semantics (the calling goroutine — and so the cooperative
// runtime — is held only for the kernel copy on loopback).
func (e *TCPEndpoint) Send(t *mts.Thread, m *transport.Message) {
	if m.From != e.proc {
		panic(fmt.Sprintf("tcpip: proc %d sending as %d", e.proc, m.From))
	}
	conn, err := e.connTo(m.To)
	if err != nil {
		panic("tcpip: " + err.Error())
	}
	e.mu.Lock()
	e.seq++
	m.Seq = e.seq
	e.mu.Unlock()
	wb := frameMessage(m)
	_, err = conn.Write(wb.B)
	wire.PutBuf(wb)
	if err != nil {
		panic("tcpip: write: " + err.Error())
	}
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

// SendBatch implements transport.BatchSender: every frame of a
// same-destination run is length-prefixed into its own pooled buffer and
// the whole run leaves in a single writev (net.Buffers.WriteTo) — one
// syscall for the burst instead of one per message.
func (e *TCPEndpoint) SendBatch(t *mts.Thread, ms []*transport.Message) {
	if len(ms) == 0 {
		return
	}
	conn, err := e.connTo(ms[0].To)
	if err != nil {
		panic("tcpip: " + err.Error())
	}
	bufs := e.batchBufs[:0]
	vecs := e.batchVecs[:0]
	e.mu.Lock()
	for _, m := range ms {
		if m.From != e.proc {
			e.mu.Unlock()
			panic(fmt.Sprintf("tcpip: proc %d sending as %d", e.proc, m.From))
		}
		if m.To != ms[0].To {
			e.mu.Unlock()
			panic("tcpip: SendBatch run mixes destinations")
		}
		e.seq++
		m.Seq = e.seq
	}
	e.mu.Unlock()
	for _, m := range ms {
		wb := frameMessage(m)
		bufs = append(bufs, wb)
		vecs = append(vecs, wb.B)
	}
	// Keep the (possibly re-grown) scratch arrays before WriteTo consumes
	// the vector in place by advancing its slice header.
	e.batchBufs = bufs
	e.batchVecs = vecs
	_, err = vecs.WriteTo(conn)
	for i, wb := range e.batchBufs {
		wire.PutBuf(wb)
		e.batchBufs[i] = nil
		e.batchVecs[i] = nil
	}
	e.batchBufs = e.batchBufs[:0]
	e.batchVecs = e.batchVecs[:0]
	if err != nil {
		panic("tcpip: writev: " + err.Error())
	}
}

// connTo returns (dialing if needed) the connection toward dst.
func (e *TCPEndpoint) connTo(dst transport.ProcID) (*net.TCPConn, error) {
	e.mu.Lock()
	if c, ok := e.conns[dst]; ok {
		e.mu.Unlock()
		return c, nil
	}
	e.mu.Unlock()

	e.net.mu.Lock()
	peer, ok := e.net.endpoints[dst]
	e.net.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("unknown destination proc %d", dst)
	}
	raddr := peer.ln.Addr().(*net.TCPAddr)
	conn, err := net.DialTCP("tcp4", nil, raddr)
	if err != nil {
		return nil, err
	}
	// Identify ourselves so the acceptor can map the inbound stream.
	var hello [4]byte
	binary.BigEndian.PutUint32(hello[:], uint32(int32(e.proc)))
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return nil, err
	}
	e.mu.Lock()
	if existing, ok := e.conns[dst]; ok {
		// Lost a dial race; keep the established one.
		e.mu.Unlock()
		conn.Close()
		return existing, nil
	}
	e.conns[dst] = conn
	e.mu.Unlock()
	return conn, nil
}

func (e *TCPEndpoint) acceptLoop() {
	for {
		conn, err := e.ln.AcceptTCP()
		if err != nil {
			return
		}
		go e.readLoop(conn)
	}
}

func (e *TCPEndpoint) readLoop(conn *net.TCPConn) {
	defer conn.Close()
	// One header buffer for the hello and every frame: it escapes through
	// io.ReadFull's interface argument, so declared inside the loop it would
	// be a heap allocation per received frame.
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil { // the dialer's hello
		return
	}
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > 64<<20 {
			return // implausible frame; drop the stream
		}
		// The pooled frame travels with the message (zero-copy payload
		// alias); it recycles when the consumer copies the payload out —
		// RecvInto, a control handler — closing the pool loop.
		fb := wire.GetBuf(int(n))
		fb.B = fb.B[:n]
		if _, err := io.ReadFull(conn, fb.B); err != nil {
			wire.PutBuf(fb)
			return
		}
		m, err := wire.UnmarshalPooled(fb)
		if err != nil {
			wire.PutBuf(fb)
			return
		}
		e.rt.Post(func() {
			e.mu.Lock()
			h := e.handler
			e.mu.Unlock()
			if h != nil {
				h(m)
			}
		})
	}
}
