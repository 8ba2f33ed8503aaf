package main

// ncs.go is the benchmark's only door into internal/core: it builds fabrics,
// procs, channels and groups, forwards the data-plane calls, and snapshots
// the exported counters. Workloads and the core kernels are written against
// the small types below, so a change to core's API (the ROADMAP's
// errors-as-values redesign) edits this file and nothing else. Every
// forwarded call is also where the span recorder hooks in: a traced run gets
// one child span per call into core without the workloads knowing.

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mts"
	"repro/internal/tcpip"
	"repro/internal/transport"
	"repro/internal/udpatm"
)

// Any is the receive wildcard.
const Any = core.Any

// idleTimeout turns a lost wakeup into a recoverable deadlock panic instead
// of a hang; a repetition that trips it scores as failed.
const idleTimeout = 5 * time.Second

// fabricLanes is every real-mode proc's lane count. core's default follows
// GOMAXPROCS and is 1 — the classic engine — on the single P the benchmark
// runs on (benchProcs); pinned to 2, what a 2-core host's default gives, the
// Mem workloads keep the sharded lane engine, DRR and cross-channel
// coalescing in the measured path. TCP and udpatm are no frame carriers and
// run the classic engine whatever this says; the virtual mesh's own default
// is 2 as well.
const fabricLanes = 2

// world is what a Fabric and a VMesh share: the exception count and the
// span recorder (nil when untraced).
type world struct {
	exceptions atomic.Int64
	rec        *recorder
	spanCap    int // span buffer size of each thread registered from here on
	procs      []*Proc

	mu    sync.Mutex // guards chans: signaled calls open on proc goroutines
	chans []*Chan    // every explicit channel end, for the after-run counters
}

func (w *world) track(c *Chan) {
	w.mu.Lock()
	w.chans = append(w.chans, c)
	w.mu.Unlock()
}

// Proc is one NCS process.
type Proc struct {
	w  *world
	p  *core.Proc
	rt *mts.Runtime
}

// Thread is the handle a workload body receives.
type Thread struct {
	t  *core.Thread
	sp *spanBuf
}

// ChanOpts selects a channel's QoS. Window > 0 installs WindowFlow(Window);
// GoBackN > 0 installs GoBackN(GoBackN, Timeout).
type ChanOpts struct {
	ID       int
	Priority int
	Window   int
	GoBackN  int
	Timeout  time.Duration
}

// Chan is one end of an explicit channel, with the discipline instances
// kept so their counters can be read after the run.
type Chan struct {
	c    *core.Channel
	flow *core.WindowFlow
	gbn  *core.GoBackN
}

// Group is one member's handle on a communicator over the default channel.
type Group struct{ g *core.Group }

// Fabric is n procs on one real carrier.
type Fabric struct {
	world
	mem     *transport.Mem
	udp     []*udpatm.Endpoint
	closers []io.Closer
}

// network is a fresh, empty network of one carrier: what NewFabric and the
// bare-endpoint kernels attach to.
type network struct {
	mem    *transport.Mem // nil unless the carrier is Mem
	attach func(id transport.ProcID, rt *mts.Runtime) (transport.Endpoint, error)
}

func newNetwork(carrier string) (*network, error) {
	switch carrier {
	case "mem":
		m := transport.NewMem()
		return &network{mem: m, attach: func(id transport.ProcID, rt *mts.Runtime) (transport.Endpoint, error) {
			return m.Attach(id, rt), nil
		}}, nil
	case "tcp":
		t := tcpip.NewTCPNetwork()
		return &network{attach: func(id transport.ProcID, rt *mts.Runtime) (transport.Endpoint, error) {
			e, err := t.Attach(id, rt)
			if err != nil {
				return nil, err
			}
			return e, nil
		}}, nil
	case "udpatm":
		u := udpatm.NewNetwork()
		return &network{attach: func(id transport.ProcID, rt *mts.Runtime) (transport.Endpoint, error) {
			e, err := u.Attach(id, rt)
			if err != nil {
				return nil, err
			}
			return e, nil
		}}, nil
	}
	return nil, fmt.Errorf("unknown carrier %q", carrier)
}

// NewFabric builds n procs over carrier ("mem", "tcp" or "udpatm"). accept,
// if set, receives the callee end of every signaled call. rec may be nil.
func NewFabric(carrier string, n int, rec *recorder, accept func(p *Proc, c *Chan)) (*Fabric, error) {
	net, err := newNetwork(carrier)
	if err != nil {
		return nil, err
	}
	f := &Fabric{mem: net.mem}
	f.rec, f.spanCap = rec, fabricSpans
	for i := 0; i < n; i++ {
		id := core.ProcID(i)
		rt := mts.New(mts.Config{Name: fmt.Sprintf("%s%d", carrier, i), IdleTimeout: idleTimeout})
		ep, err := net.attach(id, rt)
		if err != nil {
			f.Close()
			return nil, err
		}
		if c, ok := ep.(io.Closer); ok {
			f.closers = append(f.closers, c)
		}
		if u, ok := ep.(*udpatm.Endpoint); ok {
			f.udp = append(f.udp, u)
		}
		p := &Proc{w: &f.world, rt: rt}
		cfg := core.Config{ID: id, RT: rt, Endpoint: ep, SendLanes: fabricLanes, RecvLanes: fabricLanes}
		if accept != nil {
			cfg.OnAccept = func(c *core.Channel) {
				ch := &Chan{c: c}
				f.track(ch)
				accept(p, ch)
			}
		}
		p.p = core.New(cfg)
		p.p.OnException(func(error) { f.exceptions.Add(1) })
		f.procs = append(f.procs, p)
	}
	return f, nil
}

// Proc returns proc i.
func (w *world) Proc(i int) *Proc { return w.procs[i] }

// Close releases the carrier's sockets.
func (f *Fabric) Close() {
	for _, c := range f.closers {
		c.Close()
	}
}

// Run starts every proc and waits until all have finished. A deadlock (the
// mts idle-timeout panic) in any of them is returned as an error.
func (f *Fabric) Run() error {
	errs := make(chan error, len(f.procs))
	for _, p := range f.procs {
		p := p
		go func() {
			defer func() {
				if r := recover(); r != nil {
					errs <- fmt.Errorf("proc %d: %v", p.p.ID(), firstLine(r))
					return
				}
				errs <- nil
			}()
			p.p.Start()
		}()
	}
	var first error
	for range f.procs {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func firstLine(r any) string {
	s := fmt.Sprint(r)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	return s
}

// Thread registers a user thread. role groups the thread's spans in a
// traced run ("client", "server", ...).
func (p *Proc) Thread(role string, body func(t *Thread)) {
	sp := p.w.rec.buffer(role, p.w.spanCap)
	p.p.TCreate(role, mts.PrioDefault, func(ct *core.Thread) {
		body(&Thread{t: ct, sp: sp})
	})
}

// disciplines builds the flow- and error-control instances o asks for and
// keeps them on the Chan.
func (o ChanOpts) disciplines(ch *Chan) (core.FlowControl, core.ErrorControl) {
	var flow core.FlowControl
	var errc core.ErrorControl
	if o.Window > 0 {
		ch.flow = core.NewWindowFlow(o.Window)
		flow = ch.flow
	}
	if o.GoBackN > 0 {
		ch.gbn = core.NewGoBackN(o.GoBackN, o.Timeout)
		errc = ch.gbn
	}
	return flow, errc
}

// OpenBoth opens channel o between procs a and b, one end on each, and
// returns the ends in that order.
func (f *Fabric) OpenBoth(a, b int, o ChanOpts) (*Chan, *Chan) {
	open := func(from, to int) *Chan {
		ch := &Chan{}
		cfg := core.ChannelConfig{ID: core.ChannelID(o.ID), Priority: o.Priority}
		cfg.Flow, cfg.Error = o.disciplines(ch)
		ch.c = f.procs[from].p.Open(core.ProcID(to), cfg)
		f.track(ch)
		return ch
	}
	return open(a, b), open(b, a)
}

// OpenCall opens a signaled channel from t's proc to peer.
func (p *Proc) OpenCall(t *Thread, peer int, o ChanOpts) (*Chan, error) {
	ch := &Chan{}
	cfg := core.CallConfig{Priority: o.Priority}
	cfg.Flow, cfg.Error = o.disciplines(ch)
	s := t.sp.begin()
	c, err := p.p.OpenCall(t.t, core.ProcID(peer), cfg)
	t.sp.end(spanOpenCall, s)
	if err != nil {
		return nil, err
	}
	ch.c = c
	p.w.track(ch)
	return ch, nil
}

// CloseCall closes a signaled channel with the full handshake.
func (c *Chan) CloseCall(t *Thread) error {
	s := t.sp.begin()
	err := c.c.CloseCall(t.t)
	t.sp.end(spanCloseCall, s)
	return err
}

// PeerThread is the caller's thread index on the callee end of a call.
func (c *Chan) PeerThread() int { return c.c.PeerThread() }

// Send is NCS_send on the default channel.
func (t *Thread) Send(toThread, toProc int, data []byte) {
	s := t.sp.begin()
	t.t.Send(toThread, core.ProcID(toProc), data)
	t.sp.end(spanSend, s)
}

// SendTagged is Send with a user tag.
func (t *Thread) SendTagged(tag, toThread, toProc int, data []byte) {
	s := t.sp.begin()
	t.t.SendTagged(tag, toThread, core.ProcID(toProc), data)
	t.sp.end(spanSend, s)
}

// RecvInto is NCS_recv into the caller's buffer; it returns the length and
// the sending thread.
func (t *Thread) RecvInto(buf []byte, fromThread, fromProc int) (int, int) {
	s := t.sp.begin()
	n, from := t.t.RecvInto(buf, fromThread, core.ProcID(fromProc))
	t.sp.end(spanRecv, s)
	return n, from.Thread
}

// RecvTagged receives the next message with the given tag from fromProc.
func (t *Thread) RecvTagged(tag, fromThread, fromProc int) []byte {
	s := t.sp.begin()
	data, _ := t.t.RecvTagged(tag, fromThread, core.ProcID(fromProc))
	t.sp.end(spanRecv, s)
	return data
}

// Send transmits on the channel to toThread of its peer.
func (c *Chan) Send(t *Thread, toThread int, data []byte) {
	s := t.sp.begin()
	c.c.Send(t.t, toThread, data)
	t.sp.end(spanSend, s)
}

// RecvInto receives the channel's next message into buf.
func (c *Chan) RecvInto(t *Thread, buf []byte, fromThread int) (int, int) {
	s := t.sp.begin()
	n, from := c.c.RecvInto(t.t, buf, fromThread)
	t.sp.end(spanRecv, s)
	return n, from.Thread
}

// NewGroup builds this proc's handle on the communicator of thread 0 of
// procs 0..n-1 over the default channel. fanout 0 is the binomial tree;
// fanout >= n the linear baseline.
func (p *Proc) NewGroup(n, fanout int) *Group {
	members := make([]core.Addr, n)
	for i := range members {
		members[i] = core.Addr{Proc: core.ProcID(i)}
	}
	return &Group{g: p.p.NewGroup(members, core.GroupConfig{Fanout: fanout})}
}

// BcastInto broadcasts root's buf to every member.
func (g *Group) BcastInto(t *Thread, root int, buf []byte) int {
	s := t.sp.begin()
	n := g.g.BcastInto(t.t, root, buf)
	t.sp.end(spanBcast, s)
	return n
}

// Reduce folds one payload per member with fn onto root.
func (g *Group) Reduce(t *Thread, root int, own []byte, fn func(acc, next []byte) []byte) []byte {
	s := t.sp.begin()
	out := g.g.Reduce(t.t, root, own, fn)
	t.sp.end(spanReduce, s)
	return out
}

// Barrier blocks until every member has entered.
func (g *Group) Barrier(t *Thread) {
	s := t.sp.begin()
	g.g.Barrier(t.t)
	t.sp.end(spanBarrier, s)
}

// CoreStats is the after-run snapshot of every exported counter the layer
// metrics are computed from, summed over the fabric's procs.
type CoreStats struct {
	Switches     int64   // mts thread dispatches
	ProcSwitches []int64 // the same, by proc
	Received     int64   // data messages delivered on any channel
	Exceptions   int64
	Leaks        int

	Lanes                         int // per proc; 1 is the classic engine
	DRRRounds, Migrations, Steals int64

	CtrlStandalone, CtrlPiggybacked, CtrlCoalesced int64
	Retransmits, WindowSyncs                       int64

	MemBatchCalls, MemBatchMsgs int64

	Trains, TrainFrames, MaxTrainCells int64 // cell trains: datagrams of >1 AAL5 frame
	BadCells, RecvDropped              int64
}

// procStats is the part of the snapshot every proc contributes whatever it
// runs on: scheduler, lifecycle and lane-scheduler counters.
func (w *world) procStats() CoreStats {
	s := CoreStats{Exceptions: w.exceptions.Load(), Lanes: w.procs[0].p.Lanes()}
	for _, p := range w.procs {
		s.Switches += int64(p.rt.Switches())
		s.ProcSwitches = append(s.ProcSwitches, int64(p.rt.Switches()))
		s.Leaks += len(p.p.Leaks())
		for _, ls := range p.p.LaneStats() {
			s.DRRRounds += ls.DRRRounds
			s.Migrations += ls.MigratedOut
			s.Steals += ls.Steals
		}
	}
	return s
}

// Stats snapshots the counters. Call after Run has returned: the scheduler
// counters are plain fields owned by the proc goroutines.
func (f *Fabric) Stats() CoreStats {
	s := f.procStats()
	addChan := func(cs core.ChannelStats) {
		s.Received += cs.Received
		s.CtrlStandalone += cs.CtrlStandalone
		s.CtrlPiggybacked += cs.CtrlPiggybacked
		s.CtrlCoalesced += cs.CtrlCoalesced
	}
	for i, p := range f.procs {
		for j := range f.procs {
			if i != j {
				addChan(p.p.DefaultChannel(core.ProcID(j)).Stats())
			}
		}
	}
	for _, c := range f.chans {
		addChan(c.c.Stats())
		if c.flow != nil {
			s.WindowSyncs += c.flow.Syncs()
		}
		if c.gbn != nil {
			s.Retransmits += c.gbn.Retransmissions()
		}
	}
	if f.mem != nil {
		s.MemBatchCalls, s.MemBatchMsgs = f.mem.BatchStats()
	}
	for _, e := range f.udp {
		trains, frames, maxCells := e.TrainStats()
		s.Trains += trains
		s.TrainFrames += frames
		s.MaxTrainCells = max(s.MaxTrainCells, maxCells)
		s.BadCells += e.BadCells()
		s.RecvDropped += e.RecvDropped()
	}
	return s
}

// VMesh is n procs on one deterministic discrete-event loop.
type VMesh struct {
	world
	vm *core.VirtualMesh
}

// NewVMesh builds an n-proc virtual-time mesh with core's default
// configuration (2 lanes per proc, calibrated NYNET fabric).
func NewVMesh(n int, seed int64, rec *recorder) *VMesh {
	m := &VMesh{vm: core.NewVirtualMesh(n, seed, core.VirtualMeshConfig{})}
	m.rec, m.spanCap = rec, vmeshSpans
	for i, cp := range m.vm.Procs {
		p := &Proc{w: &m.world, p: cp, rt: m.vm.Nodes[i].RT()}
		cp.OnException(func(error) { m.exceptions.Add(1) })
		m.procs = append(m.procs, p)
	}
	return m
}

// Rand is the mesh's seeded workload stream number stream.
func (m *VMesh) Rand(stream int) *rand.Rand { return m.vm.Rand(int64(stream)) }

// Run executes the mesh to completion on the calling goroutine; a simulated
// deadlock is returned as an error.
func (m *VMesh) Run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("vmesh: %v", firstLine(r))
		}
	}()
	m.vm.Run()
	return nil
}

// Hash is the run's timeline fingerprint.
func (m *VMesh) Hash() string { return m.vm.TimelineHash() }

// Events is how many discrete events the engine fired, read from the
// timeline fingerprint's documented "<hash>-<events fired>-<totals>" form.
func (m *VMesh) Events() int64 {
	parts := strings.Split(m.vm.TimelineHash(), "-")
	if len(parts) < 2 {
		return 0
	}
	n, _ := strconv.ParseInt(parts[1], 10, 64)
	return n
}

// Stats snapshots the mesh's counters after Run. The control-plane counts
// come from the lanes: every proc of a mesh is sharded.
func (m *VMesh) Stats() CoreStats {
	s := m.procStats()
	for _, p := range m.procs {
		s.Received += p.p.Received()
		for _, ls := range p.p.LaneStats() {
			s.CtrlStandalone += ls.CtrlStandalone
			s.CtrlPiggybacked += ls.CtrlPiggybacked
			s.CtrlCoalesced += ls.CtrlCoalesced
		}
	}
	return s
}
