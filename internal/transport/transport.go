// Package transport defines the message-level carrier interface that both
// message-passing systems in this repo (the p4 baseline and NCS itself) run
// over. The wire format itself — header codec, chunk framing, pooled
// buffers — lives in internal/wire; this package re-exports the message
// types so carriers and the NCS core share one vocabulary.
//
// The real-mode carriers (Mem, real TCP, udpatm) hand a proc at one lane
// decoded messages one way: each embeds an Inbox, whose one bounded queue
// and one pre-bound drain carry them into the destination runtime's
// scheduler domain, where the Handler runs. All three are FrameCarriers
// too, and a proc on lane engines takes their raw frames instead.
//
// Implementations:
//   - Mem (this package): real-mode in-process transport with optional
//     loss/latency injection; a FrameCarrier whose frames arrive in the
//     sender's goroutine.
//   - internal/tcpip.SimTCP: the simulated TCP/IP path used for the paper's
//     Approach-1 benchmarks (NSM tier).
//   - internal/tcpip.TCPEndpoint: the same tier over real TCP loopback
//     connections; a FrameCarrier whose frames arrive on its connection
//     readers (ReaderDelivery).
//   - internal/nic.SimATM: the simulated ATM-API path (HSM tier,
//     Approach 2).
//   - internal/udpatm.Endpoint: AAL5 cells over UDP loopback, the "fake ATM
//     transport over UDP" of the reproduction brief; a FrameCarrier whose
//     reassembled frames arrive on its datagram reader, and which needs no
//     ReaderDelivery: its Send waits only for its own writer, which waits
//     for nobody.
package transport

import (
	"repro/internal/mts"
	"repro/internal/wire"
)

// ProcID identifies a process (one per simulated/emulated workstation).
type ProcID = wire.ProcID

// Any is the wildcard process value in receive matching (the paper's -1).
const Any = wire.Any

// Message is one NCS/p4 message; see wire.Message for the field contract.
type Message = wire.Message

// HeaderSize is the encoded header length in bytes.
const HeaderSize = wire.HeaderSize

// ErrShortMessage reports a truncated wire message.
var ErrShortMessage = wire.ErrShortMessage

// ErrMagic reports a wire message with a bad magic number.
var ErrMagic = wire.ErrMagic

// Unmarshal decodes a wire message, copying the payload out of b.
func Unmarshal(b []byte) (*Message, error) { return wire.Unmarshal(b) }

// marshalFrame encodes m into a pooled frame laid out for its receiver
// (wire.GetFrame): the in-process carriers hand the sender's marshal buffer
// over as the received frame, so its payload starts 64-byte aligned.
func marshalFrame(m *Message) *wire.Buf {
	size := m.WireSize()
	fb := wire.GetFrame(size-len(m.Data), size)
	fb.B = m.MarshalAppend(fb.B)
	return fb
}

// Handler consumes a delivered message. It runs in the destination
// process's scheduler domain.
type Handler func(*Message)

// Endpoint is one process's attachment to a transport.
type Endpoint interface {
	// Proc returns the endpoint's process identity.
	Proc() ProcID
	// Send transmits m. It may park the calling thread until the message
	// is accepted by the network (transport-specific: wire serialization
	// for the TCP model, NIC hand-off for the ATM model, immediate for
	// Mem), or hold the calling goroutine while a bounded transmit queue
	// is full (real TCP and UDP/ATM, whose writer goroutines do the socket
	// writes). m.From must equal Proc(). The message is serialized before
	// Send returns, so the caller may reuse m and m.Data afterwards.
	Send(t *mts.Thread, m *Message)
	// SetHandler installs the delivery callback. Must be set before any
	// peer sends.
	SetHandler(h Handler)
}

// BatchSender is the optional batched transmit path: an endpoint that
// implements it receives same-destination runs of messages in one call, so
// per-message constant costs (locking, wakeups, syscalls) amortize across
// the run. The NCS send system thread drains its priority queue a burst at
// a time and hands each run to SendBatch when the carrier offers it,
// falling back to per-message Send otherwise.
//
// Contract: every message in ms has the same To (the caller splits runs at
// destination changes), ms is non-empty, and the slice is only valid for
// the duration of the call (the caller reuses it). Like Send, every
// message is fully serialized before SendBatch returns, and the semantics
// must be identical to calling Send for each message in order — batching
// is a constant-cost optimization, never a reordering.
//
// Mem amortizes one scheduler wakeup per batch, the real TCP endpoint
// queues a batch under one hold of the connection's lock so that its writer
// puts the run on the wire in a single writev (as it does whatever separate
// Sends queued before it ran), and the UDP/ATM carrier feeds its per-VC
// queues under one lock so the writer can coalesce cell trains.
// The simulated carriers (SimTCP, SimATM) deliberately do not implement
// it: their per-message trap/syscall costs are the calibrated 1995 model
// the tables pin, and batching would change modeled time.
type BatchSender interface {
	SendBatch(t *mts.Thread, ms []*Message)
}

// FrameHandler consumes one marshalled wire frame. Unlike Handler it may be
// invoked from any goroutine — the sender's, a timer's, a socket reader's —
// not just the destination's scheduler domain; the consumer owns the pooled
// buffer and is responsible for decoding and recycling it.
type FrameHandler func(fb *wire.Buf)

// FrameCarrier is the optional raw-frame delivery path used by the NCS core
// at lane counts above one: instead of putting decoded messages into its
// Inbox for the destination's scheduler, the carrier hands marshalled frames
// straight to the handler, which routes them onto per-lane MPSC rings
// without a scheduler hop. Installing a frame handler replaces the
// Handler-based delivery path for that endpoint; per-channel ordering must
// be preserved exactly as for Send/SendBatch, and Send/SendBatch must be
// safe to call from several goroutines at once (every lane sends for
// itself). Carriers that cannot make those guarantees simply don't implement
// the interface, and the core runs its one lane from the send and receive
// system threads (Handler delivery, Send handed the send thread).
//
// Untrusted frames. The handler decodes without a second opinion: a frame
// that fails wire.Unmarshal is a bug to it, and it panics. Mem and SimMesh
// hand over frames they marshalled themselves. A carrier that reads bytes a
// peer produced (real TCP, udpatm) must therefore pass a frame on only after
// wire.PeekHeader has accepted its header for the frame's length — the same
// check the decoder makes — and after whatever the connection lets it verify
// about the addresses; what fails is the carrier's to drop and count, and
// the handler never sees it.
//
// Mem, SimMesh, the real-TCP endpoint and udpatm implement it; SimTCP and
// SimATM do not: they deliver through Handler and are sent to by the NCS
// send system thread, which they charge and park.
type FrameCarrier interface {
	SetFrameHandler(h FrameHandler)
}

// ReaderDelivery is the declaration a FrameCarrier makes, beside
// SetFrameHandler, when its frames arrive on the very goroutine its own Send
// may be waiting for: a carrier whose Send can block on the peer (real TCP's
// waits at a connection's queue limit, behind a writer blocked on a full
// socket) and whose handler runs on the peer-facing reader that relieves
// that backpressure. The core sends while holding a lane lock, so for such a
// carrier the handler's goroutine must never wait on a lane lock and never
// call Send — or a ring of procs, each blocked in Send holding the lane its
// reader is queued on, stops for good. The core reads the declaration once,
// when it installs the handler, and keeps deliveries to "decode, look the
// channel up, push onto the lane's ring" (see the lock rules in
// internal/core/lane.go). It is a property of the carrier, not a setting:
// Mem delivers in the sender's goroutine and never blocks, SimMesh delivers
// as clock events, and neither declares it.
type ReaderDelivery interface {
	DeliversFromReader() bool
}

// ChannelRouter is the optional per-call VC management seam: carriers that
// map (peer, channel) pairs onto switched VCs install the route when a
// signaled call connects and remove it when the channel is released,
// instead of pre-provisioning the whole mesh. Both calls run in the local
// scheduler domain. UnbindChannel must tolerate frames still in flight on
// the VC (a lossy carrier's retransmissions may race the teardown) and
// both must be idempotent. Carriers without switched VCs simply don't
// implement the interface.
type ChannelRouter interface {
	BindChannel(peer ProcID, ch wire.ChannelID)
	UnbindChannel(peer ProcID, ch wire.ChannelID)
}
