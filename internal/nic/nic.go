// Package nic models the FORE SBA-200 SBus ATM adapter (paper §2): a
// dedicated i960 does AAL5 segmentation/reassembly and DMA between host
// buffers and the wire, and the host talks to it through multiple
// input/output buffers so data transfer overlaps with the host's copying —
// the "parallel data transfer" design of Figure 2.
//
// SimATM is a transport.Endpoint over this model: the NCS High Speed Mode
// path (Approach 2, §4.2). Host-side costs use the trap + mapped-buffer
// datapath (3 bus accesses/word, Figure 3b) instead of the socket/TCP path.
package nic

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/atm"
	"repro/internal/mts"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Config parameterizes the adapter model and its host interface.
type Config struct {
	// NumBuffers is the number of output buffers between NCS and the NIC
	// (Figure 2). 1 disables pipelining; the paper's design uses several.
	NumBuffers int
	// BufferSize is the capacity of each I/O buffer in bytes.
	BufferSize int
	// TrapCost is the fixed cost of the read/write trap into the kernel
	// (the paper: "the use of traps has been shown to be more efficient
	// than using UNIX read/write system calls").
	TrapCost time.Duration
	// HostCopyPerByte is the host cost to move one byte between the
	// application buffer and the mapped kernel buffer (the 3-access
	// datapath of Figure 3b).
	HostCopyPerByte time.Duration
	// RxDropEvery, when positive, drops every Nth received AAL5 frame at
	// the adapter (fault injection: an overrun rx ring). Unlike the TCP
	// tier, the raw ATM path has no transport recovery — this is exactly
	// the case the paper's error-control thread exists for, and tests run
	// go-back-N on top to verify recovery.
	RxDropEvery int
	// RxDropRate, when positive, drops each received AAL5 frame
	// independently with this probability using the seeded RxDropSeed
	// generator: random loss across *all* VCs, data and control frames
	// alike, without the phase-locking a strictly periodic pattern can
	// exhibit against fixed-size retransmission rounds. Chaos tests use it
	// to prove the NCS flow- and error-control tiers recover end to end.
	RxDropRate float64
	RxDropSeed int64
}

// Validate panics on nonsensical configurations.
func (c Config) Validate() {
	if c.NumBuffers < 1 {
		panic("nic: need at least one I/O buffer")
	}
	if c.BufferSize < 64 {
		panic("nic: buffer size too small")
	}
}

// SimATM is one host's adapter + HSM endpoint. Chunk framing and message
// reassembly are delegated to internal/wire (one wire.Assembler per VC,
// replicating the strict sequence/index tracking a dropped frame needs so
// the next message assembles cleanly).
type SimATM struct {
	eng  *sim.Engine
	node *sim.Node
	net  *netsim.Network
	host int
	cfg  Config

	outBufs *mts.Semaphore // free output buffers
	seq     uint32
	handler transport.Handler

	reasm map[atm.VC]*atm.Reassembler
	asm   map[atm.VC]*wire.Assembler

	// dropRNG drives RxDropRate; nil when random rx loss is off. The sim
	// runs single-threaded, so seeded draws replay deterministically.
	dropRNG *rand.Rand

	// blackhole, when set, discards every arriving cell before reassembly —
	// the receive half of a crashed or partitioned host, togglable mid-run
	// by chaos tests. Atomic so a test goroutine may flip it while the
	// engine runs. RX-only: the adapter keeps transmitting (a dead *peer*
	// is modeled by blackholing the peer's adapter or killing its host in
	// the fabric).
	blackhole atomic.Bool

	cellsSent int64
	msgsSent  int64
	rxFrames  int64
	rxDropped int64
}

// NewSimATM attaches an adapter to the given workstation and network host
// slot. The host index doubles as the transport.ProcID.
func NewSimATM(node *sim.Node, net *netsim.Network, host int, cfg Config) *SimATM {
	cfg.Validate()
	a := &SimATM{
		eng:     node.Engine(),
		node:    node,
		net:     net,
		host:    host,
		cfg:     cfg,
		outBufs: mts.NewSemaphore(node.RT(), cfg.NumBuffers),
		reasm:   make(map[atm.VC]*atm.Reassembler),
		asm:     make(map[atm.VC]*wire.Assembler),
	}
	if cfg.RxDropRate > 0 {
		a.dropRNG = rand.New(rand.NewSource(cfg.RxDropSeed))
	}
	net.AttachHost(host, netsim.PortFunc(a.deliverCell))
	return a
}

// Proc implements transport.Endpoint.
func (a *SimATM) Proc() transport.ProcID { return transport.ProcID(a.host) }

// SetHandler implements transport.Endpoint.
func (a *SimATM) SetHandler(h transport.Handler) { a.handler = h }

// Node returns the endpoint's workstation.
func (a *SimATM) Node() *sim.Node { return a.node }

// CellsSent returns the number of cells transmitted.
func (a *SimATM) CellsSent() int64 { return a.cellsSent }

// RecvCost returns the host cost to move an n-byte message from the mapped
// kernel buffer to the application: one trap plus the 3-access copy.
func (a *SimATM) RecvCost(n int) time.Duration {
	return a.cfg.TrapCost + time.Duration(n)*a.cfg.HostCopyPerByte
}

// SendCost returns the host CPU component of sending n bytes (what Send
// charges in total across its chunk copies).
func (a *SimATM) SendCost(n int) time.Duration {
	return a.cfg.TrapCost + time.Duration(n)*a.cfg.HostCopyPerByte
}

// Send implements transport.Endpoint with the Figure 2 pipeline: for each
// chunk the thread acquires a free output buffer, copies into it (CPU
// burst), and signals the NIC, which segments the chunk to cells and drains
// it onto the uplink concurrently with the next chunk's copy. The call
// returns once the final chunk is handed to the NIC — the wire transfer
// itself overlaps whatever the caller does next.
func (a *SimATM) Send(t *mts.Thread, m *transport.Message) {
	if m.From != a.Proc() {
		panic(fmt.Sprintf("nic: host %d sending as %d", a.host, m.From))
	}
	a.seq++
	m.Seq = a.seq
	wb := wire.GetBuf(m.WireSize())
	wb.B = m.MarshalAppend(wb.B)
	a.msgsSent++

	a.node.Compute(t, a.cfg.TrapCost)

	// Each NCS channel rides its own VC (channel ID = VPI); the default
	// channel uses the pre-provisioned VPI-0 mesh.
	vc := atm.VCForChan(a.host, int(m.To), uint16(m.Channel))
	path := a.net.PathFor(a.host)
	// The chunk buffer is per-Send (another thread's Send may interleave
	// at the park points below); the marshal buffer likewise.
	cb := wire.GetBuf(a.cfg.BufferSize)
	ck := wire.NewChunker(wb.B, m.Seq, a.cfg.BufferSize-wire.ChunkHeaderSize)
	for {
		chunk, ok := ck.Next(cb.B[:0])
		if !ok {
			break
		}
		// Acquire a free output buffer; with k >= 2 this overlaps the
		// NIC draining earlier buffers.
		a.outBufs.Wait(t)
		// Host copy into the mapped kernel buffer (holds the CPU).
		a.node.Compute(t, time.Duration(len(chunk))*a.cfg.HostCopyPerByte)
		// The NIC takes over: segment and clock cells onto the uplink.
		// Each unit points at its cell in the chunk's wire buffer, so the
		// buffer is fresh per chunk: cells in flight still read it.
		cells, err := atm.AppendCells(nil, vc, chunk)
		if err != nil {
			panic("nic: segment: " + err.Error())
		}
		var lastTx = a.eng.Now()
		for off := 0; off < len(cells); off += atm.CellSize {
			lastTx = path.Send(netsim.Unit{
				WireBytes: atm.CellSize,
				DstHost:   int(m.To),
				VC:        vc,
				Payload:   (*[atm.CellSize]byte)(cells[off:]),
			})
			a.cellsSent++
		}
		// The buffer frees when its last cell has left the adapter.
		if lastTx > a.eng.Now() {
			bufs := a.outBufs
			a.eng.ScheduleAt(lastTx, func() { bufs.Signal() })
		} else {
			a.outBufs.Signal()
		}
	}
	wire.PutBuf(cb)
	wire.PutBuf(wb)
}

// BindChannel implements transport.ChannelRouter: a signaled call that
// connects installs the switched VC pair carrying (peer, ch), the
// adapter-side half of the paper's one-VC-per-channel model. Channel 0
// rides the pre-provisioned mesh and topologies without per-pair routing
// (Ethernet, WAN) keep their static tables. Runs in the sim's scheduler
// domain; idempotent.
func (a *SimATM) BindChannel(peer transport.ProcID, ch wire.ChannelID) {
	if ch == 0 || a.net.Kind() != "nynet-lan" {
		return
	}
	a.net.InstallChannelRoute(a.host, int(peer), uint16(ch))
}

// UnbindChannel implements transport.ChannelRouter: the released call's VC
// routes leave the switch (in-flight cells are discarded there, as a real
// fabric does after release) and the adapter drops the channel's receive
// reassembly state so channel churn cannot accrete it.
func (a *SimATM) UnbindChannel(peer transport.ProcID, ch wire.ChannelID) {
	if ch == 0 {
		return
	}
	if a.net.Kind() == "nynet-lan" {
		a.net.RemoveChannelRoute(a.host, int(peer), uint16(ch))
	}
	rx := atm.VCForChan(int(peer), a.host, uint16(ch))
	delete(a.reasm, rx)
	delete(a.asm, rx)
}

// SetBlackhole toggles receive-side blackholing: while set, every arriving
// cell is dropped (and counted in RxDropped) before any reassembly.
func (a *SimATM) SetBlackhole(on bool) { a.blackhole.Store(on) }

// deliverCell runs per arriving cell: the i960 reassembles AAL5 frames per
// VC; completed frames feed the VC's chunk assembler, and a finished
// message goes up to the handler. A cell reassembly rejects — a header
// that fails HEC or names another VC, a frame whose CRC or length fails —
// is counted and dropped, as udpatm drops it, and so is a valid frame too
// short to carry a chunk header.
func (a *SimATM) deliverCell(u netsim.Unit) {
	if a.blackhole.Load() {
		a.rxDropped++
		return
	}
	cell, ok := u.Payload.(*[atm.CellSize]byte)
	if !ok {
		panic("nic: foreign unit delivered to SimATM")
	}
	vc := u.VC
	r := a.reasm[vc]
	if r == nil {
		r = atm.NewReassembler(vc)
		a.reasm[vc] = r
	}
	_, chunk, done, err := r.PushWire(cell[:])
	if err != nil {
		a.rxDropped++
		return
	}
	if !done {
		return
	}
	a.rxFrames++
	if a.cfg.RxDropEvery > 0 && a.rxFrames%int64(a.cfg.RxDropEvery) == 0 {
		// Fault injection: the rx ring overran; this frame is gone.
		a.rxDropped++
		return
	}
	if a.dropRNG != nil && a.dropRNG.Float64() < a.cfg.RxDropRate {
		// Random fault injection: any frame — data or control — may die.
		a.rxDropped++
		return
	}
	asm := a.asm[vc]
	if asm == nil {
		asm = &wire.Assembler{}
		a.asm[vc] = asm
	}
	before := asm.Dropped()
	msgWire, done, err := asm.Push(chunk)
	// Partials the assembler abandoned (sequence change, index gap) are
	// messages this layer lost; the error-control tier recovers them.
	a.rxDropped += asm.Dropped() - before
	if err != nil {
		if err == wire.ErrChunkShort {
			// A frame too short to carry a chunk header is peer input,
			// counted and dropped like any frame reassembly rejects.
			a.rxDropped++
		}
		// Stray or gap chunk: the message cannot be completed here.
		return
	}
	if !done {
		return
	}
	m, err := transport.Unmarshal(msgWire)
	if err != nil {
		// An interior frame was lost and the tail still arrived: the
		// message is unrecoverable at this layer.
		a.rxDropped++
		return
	}
	if a.handler == nil {
		panic(fmt.Sprintf("nic: host %d has no handler", a.host))
	}
	a.handler(m)
}

// RxDropped reports what the adapter discarded: cells and frames AAL5
// reassembly rejected (a header failing HEC, a CRC or length mismatch),
// frames too short for a chunk header, and frames and messages lost to fault injection or to loss-induced
// reassembly failure.
func (a *SimATM) RxDropped() int64 { return a.rxDropped }
