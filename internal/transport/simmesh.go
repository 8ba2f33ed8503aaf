package transport

import (
	"fmt"
	"time"

	"repro/internal/mts"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// SimMesh is the virtual-time carrier for large process meshes: frames are
// delivered as cost-model events on a netsim fabric (per-hop serialization,
// switching latency, propagation) instead of scheduler posts, so N procs
// share one discrete-event clock and the timeline is deterministic. It is
// the transport half of core.NewVirtualMesh.
//
// Unlike SimTCP it is frame-granular (one unit per wire frame, no MTU
// fragmentation) and charges no host CPU for the protocol path — the
// modeled cost is pure network. Send never parks the caller: the sharded
// core calls it inline under a lane lock with a nil thread, and the uplink's
// busy horizon absorbs back-to-back frames as queueing delay. That makes it
// a FrameCarrier the sharded (multi-lane) core can ride under virtual time.
type SimMesh struct {
	net *netsim.Network
	eps []*SimMeshEndpoint
}

// simMeshFrameOverhead is the per-frame wire framing charge (bytes), in the
// ballpark of the Classical-IP-over-ATM encapsulation the TCP model uses.
const simMeshFrameOverhead = 48

// NewSimMesh wraps a netsim fabric whose host h carries proc h. The fabric
// is typically netsim.NewFrameMesh, but any Network with one host slot per
// proc works.
func NewSimMesh(net *netsim.Network) *SimMesh {
	return &SimMesh{net: net, eps: make([]*SimMeshEndpoint, net.Hosts())}
}

// KillHost, ReviveHost, Partition, Heal, and ScheduleFlap forward the
// fabric's crash/partition primitives so chaos tests drive faults through
// the carrier they hold. All run in the engine's goroutine, like every
// other SimMesh method.
func (sm *SimMesh) KillHost(h int)     { sm.net.KillHost(h) }
func (sm *SimMesh) ReviveHost(h int)   { sm.net.ReviveHost(h) }
func (sm *SimMesh) Partition(a, b int) { sm.net.Partition(a, b) }
func (sm *SimMesh) Heal(a, b int)      { sm.net.Heal(a, b) }
func (sm *SimMesh) ScheduleFlap(a, b int, after, dur time.Duration) {
	sm.net.ScheduleFlap(a, b, after, dur)
}

// Attach creates the endpoint for host (= proc) h and wires its receive
// port.
func (sm *SimMesh) Attach(h int) *SimMeshEndpoint {
	if sm.eps[h] != nil {
		panic(fmt.Sprintf("transport: host %d already attached", h))
	}
	e := &SimMeshEndpoint{sm: sm, host: h}
	sm.eps[h] = e
	sm.net.AttachHost(h, netsim.PortFunc(e.deliverUnit))
	return e
}

// SimMeshEndpoint is one proc's attachment to a SimMesh. All methods run in
// the simulation engine's goroutine (events, or threads it dispatched), so
// no locking is needed anywhere.
type SimMeshEndpoint struct {
	sm        *SimMesh
	host      int
	seq       uint32
	handler   Handler
	frameH    FrameHandler
	rxDropped int64
}

// RxDropped returns how many arriving frames failed to decode and were
// dropped. A frame for a lane proc goes to its frame handler undecoded,
// and core counts what it refuses there.
func (e *SimMeshEndpoint) RxDropped() int64 { return e.rxDropped }

// Proc implements Endpoint.
func (e *SimMeshEndpoint) Proc() ProcID { return ProcID(e.host) }

// SetHandler implements Endpoint (classic two-thread procs).
func (e *SimMeshEndpoint) SetHandler(h Handler) { e.handler = h }

// SetFrameHandler implements FrameCarrier (sharded lane procs).
func (e *SimMeshEndpoint) SetFrameHandler(h FrameHandler) { e.frameH = h }

// Send implements Endpoint: marshal into a pooled frame, hand it to the
// fabric as one unit, and return — the caller never parks, and the message
// is fully serialized so it may be reused immediately.
func (e *SimMeshEndpoint) Send(t *mts.Thread, m *Message) {
	if m.From != e.Proc() {
		panic(fmt.Sprintf("transport: proc %d sending message from %d", e.Proc(), m.From))
	}
	e.seq++
	m.Seq = e.seq
	fb := marshalFrame(m)
	e.sm.net.PathFor(e.host).Send(netsim.Unit{
		WireBytes: len(fb.B) + simMeshFrameOverhead,
		SrcHost:   e.host,
		DstHost:   int(m.To),
		Payload:   fb,
	})
}

// deliverUnit runs at the frame's arrival time in the engine's goroutine:
// raw frame to a sharded proc's lane router (which owns the pooled buffer),
// or decode-and-deliver for a classic proc.
func (e *SimMeshEndpoint) deliverUnit(u netsim.Unit) {
	fb := u.Payload.(*wire.Buf)
	if e.frameH != nil {
		e.frameH(fb)
		return
	}
	m, err := Unmarshal(fb.B)
	wire.PutBuf(fb)
	if err != nil {
		// Peer input: counted and dropped, as the ATM carriers do.
		e.rxDropped++
		return
	}
	e.handler(m)
}
