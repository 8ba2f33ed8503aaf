// Package p4 reimplements the subset of Argonne's p4 message-passing
// library that the paper benchmarks against (Butler & Lusk; paper ref [8]):
// procgroup creation, typed blocking send/receive with -1 wildcards, and
// p4_messages_available.
//
// The defining property of the baseline is that a process is single-
// threaded: p4_recv blocks the *whole process*, so a workstation waiting
// for data computes nothing (Figure 16, upper half). NCS_MTS/p4 keeps
// exactly this library underneath and regains the lost time by
// multithreading above it.
//
// A p4 process here is one mts thread (the "process body") on its own
// runtime. Over the simulated TCP transport that reproduces 1995 blocking
// semantics in virtual time; over the Mem transport it runs for real.
package p4

import (
	"fmt"
	"time"

	"repro/internal/mts"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Any is the p4 wildcard for type and source (-1).
const Any = transport.Any

// ProcID aliases the transport process identifier.
type ProcID = transport.ProcID

// Config assembles a Process.
type Config struct {
	// ID is the process identity; must match Endpoint.Proc().
	ID ProcID
	// RT is the process's thread runtime.
	RT *mts.Runtime
	// Endpoint carries messages.
	Endpoint transport.Endpoint
	// RecvCharge, if set, is the CPU cost of pulling an n-byte message out
	// of the protocol stack, charged to the receiving thread at consume
	// time. The sim harness wires this to the TCP cost model.
	RecvCharge func(t *mts.Thread, n int)
	// BlockedRecvPenalty, if set, runs after a Recv that had to block,
	// before the data is returned. It models p4's receive discovery
	// latency: p4_recv polls its sockets (select with timeout + backoff),
	// so a message is noticed some fraction of a poll quantum after it
	// arrives. NCS avoids this cost structurally — its receive system
	// thread is woken by the transport — which is part of what Tables 1-3
	// measure.
	BlockedRecvPenalty func(t *mts.Thread)
	// Tracer, if set, records this process's activity timeline under
	// TraceName.
	Tracer    *trace.Recorder
	TraceName string
}

// Process is one p4 process.
type Process struct {
	cfg  Config
	body *mts.Thread

	queue   []*transport.Message
	waiting *recvWait

	sends, recvs int64
}

type recvWait struct {
	t        *mts.Thread
	wantTag  int
	wantFrom ProcID
	got      *transport.Message
}

// New creates a p4 process and hooks its endpoint. The process body is
// started by Go(); this mirrors p4_initenv + p4_create_procgroup splitting
// setup from execution.
func New(cfg Config) *Process {
	if cfg.Endpoint.Proc() != cfg.ID {
		panic(fmt.Sprintf("p4: id %d != endpoint proc %d", cfg.ID, cfg.Endpoint.Proc()))
	}
	p := &Process{cfg: cfg}
	cfg.Endpoint.SetHandler(p.deliver)
	return p
}

// ID returns the process identity.
func (p *Process) ID() ProcID { return p.cfg.ID }

// RT returns the process runtime.
func (p *Process) RT() *mts.Runtime { return p.cfg.RT }

// Sends returns the number of messages sent.
func (p *Process) Sends() int64 { return p.sends }

// Recvs returns the number of messages received.
func (p *Process) Recvs() int64 { return p.recvs }

// Go starts the process body (the single p4 "program").
func (p *Process) Go(body func(t *mts.Thread)) {
	if p.body != nil {
		panic("p4: process already started")
	}
	p.body = p.cfg.RT.Create(fmt.Sprintf("p4-proc%d", p.cfg.ID), mts.PrioDefault, func(t *mts.Thread) {
		p.setTrace(trace.Compute)
		body(t)
		p.setTrace(trace.Idle)
		p.closeTrace()
	})
}

func (p *Process) setTrace(s trace.State) {
	if p.cfg.Tracer != nil {
		p.cfg.Tracer.Set(p.cfg.TraceName, s)
	}
}

func (p *Process) closeTrace() {
	if p.cfg.Tracer != nil {
		p.cfg.Tracer.Close(p.cfg.TraceName)
	}
}

// Send transmits data with a p4 message type to another process; the
// paper's p4_send. It blocks the process until the stack accepts the whole
// message (blocking socket write).
func (p *Process) Send(t *mts.Thread, typ int, to ProcID, data []byte) {
	if typ < 0 {
		panic("p4: negative message type is reserved for wildcards")
	}
	p.setTrace(trace.Comm)
	p.cfg.Endpoint.Send(t, &transport.Message{
		From: p.cfg.ID,
		To:   to,
		Tag:  typ,
		Data: data,
	})
	p.sends++
	p.setTrace(trace.Compute)
}

// Recv receives the next message matching (*typ, *from), where either may
// be Any (-1); the paper's p4_recv. On return *typ and *from hold the
// actual type and source. The whole process blocks while waiting — this is
// the baseline behaviour the paper improves on.
func (p *Process) Recv(t *mts.Thread, typ *int, from *ProcID) []byte {
	wantTag, wantFrom := Any, ProcID(Any)
	if typ != nil {
		wantTag = *typ
	}
	if from != nil {
		wantFrom = *from
	}
	var m *transport.Message
	if i := p.match(wantTag, wantFrom); i >= 0 {
		m = p.queue[i]
		p.queue = append(p.queue[:i], p.queue[i+1:]...)
	} else {
		if p.waiting != nil {
			panic("p4: concurrent Recv on a single-threaded process")
		}
		w := &recvWait{t: t, wantTag: wantTag, wantFrom: wantFrom}
		p.waiting = w
		p.setTrace(trace.Idle) // blocked process: the CPU sits idle
		t.Park("p4 recv")
		m = w.got
		if p.cfg.BlockedRecvPenalty != nil {
			p.cfg.BlockedRecvPenalty(t)
		}
	}
	// Pull the message through the protocol stack (copy to user space).
	p.setTrace(trace.Comm)
	if p.cfg.RecvCharge != nil {
		p.cfg.RecvCharge(t, len(m.Data)+transport.HeaderSize)
	}
	p.setTrace(trace.Compute)
	if typ != nil {
		*typ = m.Tag
	}
	if from != nil {
		*from = m.From
	}
	p.recvs++
	return m.Data
}

// MessagesAvailable reports whether a receive would complete immediately;
// the paper's p4_messages_available.
func (p *Process) MessagesAvailable() bool { return len(p.queue) > 0 }

// Compute runs application work in the runtime's mode (mts.Thread.Compute:
// a virtual runtime charges cost, a real one runs fn), tracing it.
func (p *Process) Compute(t *mts.Thread, cost time.Duration, fn func()) {
	p.setTrace(trace.Compute)
	t.Compute(cost, fn)
}

func (p *Process) match(tag int, from ProcID) int {
	for i, m := range p.queue {
		if (tag == Any || m.Tag == tag) && (from == Any || m.From == from) {
			return i
		}
	}
	return -1
}

// deliver runs in the scheduler domain when a message arrives.
func (p *Process) deliver(m *transport.Message) {
	if w := p.waiting; w != nil &&
		(w.wantTag == Any || m.Tag == w.wantTag) &&
		(w.wantFrom == ProcID(Any) || m.From == w.wantFrom) {
		p.waiting = nil
		w.got = m
		p.cfg.RT.Unblock(w.t, false)
		return
	}
	p.queue = append(p.queue, m)
}

// Procgroup is a convenience for building and running a host+nodes group,
// the way p4_create_procgroup sets up the paper's benchmarks.
type Procgroup struct {
	Procs []*Process
}

// RunReal drives every process's runtime in its own goroutine and waits;
// only for real-time transports. Sim-mode groups are driven by the engine.
func (g *Procgroup) RunReal() {
	done := make(chan struct{}, len(g.Procs))
	for _, p := range g.Procs {
		p := p
		go func() {
			p.cfg.RT.Run()
			done <- struct{}{}
		}()
	}
	for range g.Procs {
		<-done
	}
}
