// Package tcpip models the traditional protocol path the paper's baseline
// (p4) and the NCS Normal Speed Mode run over: socket call overhead, TCP/IP
// per-byte protocol processing (the five-bus-accesses-per-word datapath of
// Figure 3a), MTU fragmentation, and the Internet checksum.
//
// In simulation the stack is a cost model: protocol processing occupies the
// sending/receiving workstation's CPU for calibrated durations while the
// wire carries MTU-sized frames through internal/netsim. The real-memory
// version of the same datapath (actual copies, counted bus accesses) lives
// in internal/hostif and backs the Figure 3 experiment.
package tcpip

import (
	"fmt"
	"time"

	"repro/internal/atm"
	"repro/internal/mts"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Checksum computes the Internet checksum (RFC 1071) over b: the ones'
// complement of the ones'-complement sum of 16-bit words.
func Checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// CostModel captures the host-side expense of the socket/TCP/IP path on a
// given workstation class. Calibrated instances for the 1995 platforms live
// in internal/bench.
type CostModel struct {
	// PerMessage is the fixed cost of a send or receive: system call,
	// socket layer, protocol control block work.
	PerMessage time.Duration
	// PerByteSend is the marginal sender cost per payload byte (the
	// 5-access copy+checksum datapath of Figure 3a).
	PerByteSend time.Duration
	// PerByteRecv is the marginal receiver cost per payload byte.
	PerByteRecv time.Duration
	// MTU is the payload capacity of one wire frame.
	MTU int
	// FrameOverhead is per-frame header bytes on the wire (MAC+IP+TCP).
	FrameOverhead int
}

// SendCost returns the CPU time to push an n-byte message into the stack.
func (c CostModel) SendCost(n int) time.Duration {
	return c.PerMessage + time.Duration(n)*c.PerByteSend
}

// RecvCost returns the CPU time to pull an n-byte message out of the stack.
func (c CostModel) RecvCost(n int) time.Duration {
	return c.PerMessage + time.Duration(n)*c.PerByteRecv
}

// Frames returns how many wire frames an n-byte message needs. The
// fragmentation extents themselves come from the shared wire codec.
func (c CostModel) Frames(n int) int {
	return wire.Fragments(n, c.MTU)
}

// msgFrag is the unit payload for one TCP segment of a message.
type msgFrag struct {
	src  transport.ProcID
	seq  uint32
	last bool
	// buf holds the full marshalled message on the last fragment; the
	// pooled buffer is recycled by deliverFrame once decoded.
	buf *wire.Buf
}

// SimTCP is a transport.Endpoint that charges the cost model on the local
// CPU and carries frames through the simulated network. One per host.
type SimTCP struct {
	eng     *sim.Engine
	node    *sim.Node
	net     *netsim.Network
	host    int
	cost    CostModel
	seq     uint32
	handler transport.Handler

	// sent/received counters for experiment reporting.
	msgsSent  int64
	bytesSent int64
	// rxDropped counts arriving messages that failed to decode.
	rxDropped int64
}

// NewSimTCP attaches a simulated TCP endpoint for the given host. The host
// index doubles as the transport.ProcID.
func NewSimTCP(node *sim.Node, net *netsim.Network, host int, cost CostModel) *SimTCP {
	if cost.MTU <= 0 {
		panic("tcpip: cost model needs MTU > 0")
	}
	e := &SimTCP{eng: node.Engine(), node: node, net: net, host: host, cost: cost}
	net.AttachHost(host, netsim.PortFunc(e.deliverFrame))
	return e
}

// Proc implements transport.Endpoint.
func (e *SimTCP) Proc() transport.ProcID { return transport.ProcID(e.host) }

// Cost returns the endpoint's cost model, so the message-passing layer can
// charge receive-side processing to the receiving thread.
func (e *SimTCP) Cost() CostModel { return e.cost }

// Node returns the endpoint's workstation.
func (e *SimTCP) Node() *sim.Node { return e.node }

// SetHandler implements transport.Endpoint.
func (e *SimTCP) SetHandler(h transport.Handler) { e.handler = h }

// MsgsSent returns the number of messages sent.
func (e *SimTCP) MsgsSent() int64 { return e.msgsSent }

// BytesSent returns payload bytes sent.
func (e *SimTCP) BytesSent() int64 { return e.bytesSent }

// RxDropped returns how many arriving messages failed to decode and were
// dropped. The fabric carries what Send marshalled, so a drop here means a
// frame was corrupted on the way: peer input, counted and dropped as the
// ATM carriers do, never a panic.
func (e *SimTCP) RxDropped() int64 { return e.rxDropped }

// Send implements transport.Endpoint: the caller's thread is charged the
// protocol cost, then parks until the final frame has serialized onto the
// local wire (a blocking socket write draining through a small socket
// buffer, as p4 over 1995 SunOS behaved).
func (e *SimTCP) Send(t *mts.Thread, m *transport.Message) {
	if m.From != e.Proc() {
		panic(fmt.Sprintf("tcpip: host %d sending as %d", e.host, m.From))
	}
	e.seq++
	m.Seq = e.seq
	wb := wire.GetBuf(m.WireSize())
	wb.B = m.MarshalAppend(wb.B)
	e.msgsSent++
	e.bytesSent += int64(len(m.Data))

	// Protocol processing occupies this CPU (checksum + copy, Figure 3a).
	e.node.Compute(t, e.cost.SendCost(len(wb.B)))

	path := e.net.PathFor(e.host)
	var lastTx = e.eng.Now()
	frames := wire.Fragments(len(wb.B), e.cost.MTU)
	for i := 0; i < frames; i++ {
		lo, hi := wire.Extent(len(wb.B), e.cost.MTU, i)
		frag := &msgFrag{src: m.From, seq: m.Seq, last: i == frames-1}
		if frag.last {
			frag.buf = wb
		}
		// Classical-IP-over-ATM: on switched topologies the IP frames ride
		// the host-pair VC; the Ethernet medium ignores the field.
		lastTx = path.Send(netsim.Unit{
			WireBytes: hi - lo + e.cost.FrameOverhead,
			SrcHost:   e.host,
			DstHost:   int(m.To),
			VC:        atm.VCFor(e.host, int(m.To)),
			Payload:   frag,
		})
	}
	// Park until the socket buffer drains (last frame on the wire).
	if lastTx > e.eng.Now() {
		done := t
		e.eng.ScheduleAt(lastTx, func() { e.node.RT().Unblock(done, false) })
		t.Park("tcp send drain")
	}
}

// deliverFrame runs at frame arrival. TCP is in-order per connection and
// the simulated links are FIFO, so the message completes when its last
// fragment arrives.
func (e *SimTCP) deliverFrame(u netsim.Unit) {
	frag, ok := u.Payload.(*msgFrag)
	if !ok {
		panic("tcpip: foreign unit delivered to SimTCP")
	}
	if !frag.last {
		return
	}
	// Unmarshal copies the payload out, so the marshal buffer recycles
	// here — the explicit end of its send → wire → deliver lifetime.
	m, err := transport.Unmarshal(frag.buf.B)
	wire.PutBuf(frag.buf)
	if err != nil {
		e.rxDropped++
		return
	}
	if e.handler == nil {
		panic(fmt.Sprintf("tcpip: host %d has no handler", e.host))
	}
	e.handler(m)
}
