// Package core is NCS, the NYNET Communication System — the paper's primary
// contribution (§3, §4). It glues the two subsystems together:
//
//   - NCS_MTS (internal/mts): user-level threads, 16-level priority
//     round-robin scheduling, block/unblock, synchronization.
//   - NCS_MPS (this package + a transport): thread-addressed message
//     passing. NCS_send and NCS_recv wake the *send* and *receive system
//     threads* and block only the calling thread, never the process, so
//     other threads compute while a transfer is in flight.
//
// A Proc is one NCS process (one per workstation). Its system threads run
// at the highest priority; user compute threads are created with TCreate
// and started with Start, mirroring the paper's generic application model
// (Figure 10):
//
//	NCS_init(flow, error)   ->  core.New(Config{Flow: ..., Error: ...})
//	NCS_t_create(fn, a, p)  ->  proc.TCreate(name, prio, fn)
//	NCS_start()             ->  proc.Start() / sim engine Run
//	NCS_send / NCS_recv     ->  Thread.Send / Thread.Recv
//	NCS_bcast               ->  Thread.Bcast
//	NCS_block / NCS_unblock ->  Thread.Block / Thread.Unblock
//
// NCS_init's flow/error arguments configure the *default channel*: every
// process pair has an implicit channel 0 whose disciplines fork from the
// Config templates, which is what Thread.Send/Recv ride. The paper's
// application-specific QoS (§3, Figure 5) goes further — each traffic
// class picks its own disciplines — and that is Proc.Open: an explicit
// Channel with its own FlowControl, ErrorControl, and priority, mapped to
// its own ATM virtual circuit in the cell-level carriers (see channel.go).
//
// The transport underneath decides the tier: the simulated or real TCP path
// gives the Normal Speed Mode (Approach 1, what the paper benchmarks); the
// ATM-API path (internal/nic) gives the High Speed Mode (Approach 2).
//
// # Threading model
//
// There is one send/recv protocol implementation — the lane code in lane.go:
// admission, control piggybacked on its own channel's data, the paper's
// strict priority pop across a lane's channels under strictly-first control
// traffic (sched.go), a per-lane flush wheel, demultiplexing and the
// scheduler-domain drain — and every Proc runs it over at least one lane.
// What varies is the lane's execution vehicle, its engineDriver, which New
// selects per Proc from the runtime's clock, the carrier's capabilities and
// the hooks already in Config (there is nothing to set):
//
//   - Thread driver: the paper's exact model (§4, Figure 8) — one send and
//     one receive system thread at top priority over a single lane. NCS_send
//     enqueues, wakes the send thread and parks only the caller; the send
//     thread hands itself to the carrier. Selected whenever the others cannot
//     be: a resolved lane count of 1 (the GOMAXPROCS=1 default), a carrier
//     that is no transport.FrameCarrier (SimTCP, SimATM), or a hook
//     that assumes protocol work happens on a scheduler thread (RecvCharge,
//     ArrivalPollDelay — the cost-model sim harnesses).
//   - Goroutine driver: each lane engine is a goroutine; senders service
//     their lane inline, the delivering goroutine may run a short frame's
//     receive pass itself; timers are the runtime's (Runtime.After; the
//     package itself never touches the wall clock). Selected at lane counts
//     above one on a frame carrier (Mem, real TCP, udpatm) under a real-time
//     runtime. On real TCP the inline service ends at a connection's
//     transmit queue: the carrier's writer goroutine executes the socket
//     write, so the thread holding the proc's CPU token never spends it in
//     the kernel's transmit path — the send blocks only the calling thread,
//     never the process — and stands still only at that queue's high-water
//     mark (lane.go, "Lock order").
//   - Virtual driver: the goroutine driver's place when the runtime is
//     virtual (Runtime.Virtual: a sim node's runtime, whose clock is the
//     node). The lane engines run as event callbacks on the discrete-event
//     engine's clock — no lane goroutines at all, and every timer is an
//     engine event too. Events and the threads they dispatch execute
//     strictly one at a time in the engine's goroutine, ordered by the event
//     queue's (time, seq) heap, so a run is deterministic: the same workload
//     and seed reproduce the timeline byte for byte. Code in this package
//     must therefore never let ordering depend on Go map iteration or
//     goroutine scheduling (see Proc.channelsOrdered).
//
// Lane placement is static, as in the paper, where a channel's place is fixed
// when it is opened: a channel runs on the lane its peer hashes to, or on the
// one ChannelConfig.Lane names, for life. Several busy channels to one peer
// therefore share a lane unless pinned apart. Proc.LaneStats reports the
// per-lane view: piggyback share and engine passes.
//
// NewVirtualMesh builds the standard virtual-mode arrangement — N procs on
// one engine over a frame-granular fabric — and TimelineHash fingerprints
// a run for determinism assertions. The seam between the drivers is
// engineDriver in lane.go.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/budget"
	"repro/internal/mts"
	"repro/internal/trace"
	"repro/internal/transport"
)

// ProcID aliases the transport process identifier.
type ProcID = transport.ProcID

// Any is the wildcard (-1) in receive matching, as in the paper's
// NCS_recv(-1, -1, ...).
const Any = transport.Any

// Reserved control tags (negative; user tags are >= 0).
const (
	tagFlowAck = -2
	tagGBNAck  = -5
)

// Addr addresses one NCS thread: the paper's (thread, process) pair.
type Addr struct {
	Proc   ProcID
	Thread int
}

// Config assembles a Proc.
type Config struct {
	// ID is the process identity; must match Endpoint.Proc().
	ID ProcID
	// RT is the process's thread runtime (one per workstation).
	RT *mts.Runtime
	// Endpoint carries messages (SimTCP, SimATM, Mem, UDP).
	Endpoint transport.Endpoint
	// RecvCharge, if set, is the host CPU cost of moving an n-byte message
	// from the protocol stack to the application, charged at consume time.
	RecvCharge func(t *mts.Thread, n int)
	// Flow selects the flow-control discipline (nil = NoFlowControl, the
	// paper's Approach-1 default, which relies on p4/TCP underneath).
	Flow FlowControl
	// Error selects the error-control discipline (nil = NoErrorControl).
	Error ErrorControl
	// ArrivalPollDelay models Approach 1's receive discovery latency: the
	// NCS receive system thread polls p4 underneath (§4.2 — NCS_recv is
	// built on p4_messages_available/p4_recv), so a message that arrives
	// while the workstation is otherwise idle is noticed only at the next
	// poll. When compute threads keep the CPU busy the poll coincides
	// with the next context switch and costs nothing — that asymmetry is
	// precisely how multithreading hides latency. The hook returns the
	// extra delay to apply to the receive thread's wakeup for an arrival;
	// nil means zero (Approach 2's trap-driven receive path).
	ArrivalPollDelay func() time.Duration
	// Tracer, if set, records per-thread timelines named
	// "<TraceName>/t<idx>".
	Tracer    *trace.Recorder
	TraceName string
	// SendLanes and RecvLanes ask for a lane count (see lane.go): 0 defaults
	// to min(GOMAXPROCS, 4), and the larger of the two resolved values is
	// the count (each lane is a combined send/recv engine, run by its own
	// goroutine or, on a virtual runtime, as clock events). A resolved count
	// of 1 — always the case on a single-core GOMAXPROCS — builds one lane
	// under the thread driver: the paper's two system threads, exactly. So
	// does any count on an endpoint that is no transport.FrameCarrier (Mem,
	// real TCP, udpatm and SimMesh are; SimTCP and SimATM are not), and any
	// count beside a hook that assumes the protocol runs on a scheduler
	// thread (RecvCharge, ArrivalPollDelay — the cost-model sim harnesses).
	SendLanes int
	RecvLanes int
	// Admission judges incoming signaled call setups (Proc.OpenCall at the
	// peer): nil admits everything. Rejections travel back to the caller
	// as typed causes; see AdmissionPolicy in signal.go.
	Admission AdmissionPolicy
	// OnAccept, when set, runs in the scheduler domain for every incoming
	// signaled call this process admits, handing the application its end of
	// the channel (typically to TCreate a serving thread). The channel is
	// OPEN and the CONNECT already on its way when the hook runs.
	OnAccept func(*Channel)
	// Heartbeat configures the per-peer failure detector (failure.go):
	// every Interval the proc beats each peer it has channels to over the
	// channel-0 signaling band and, after Misses consecutive silent
	// intervals, declares the peer dead — force-closing every channel to it
	// and failing blocked senders, receivers, and collectives with the
	// typed *PeerDeadError. Interval 0 disables detection (the default).
	// All timers ride the runtime's After, so detection is deterministic on
	// a virtual mesh.
	Heartbeat Heartbeat
}

// sendReq is one queued transfer on a lane's send scheduler.
type sendReq struct {
	m *transport.Message
	// ch is the channel the message travels on; nil for control traffic.
	ch *Channel
	// raw marks a retransmission: the message was already stamped (it must
	// keep its original sequence), so it bypasses admission.
	raw bool
	// ctrl marks a pooled control message that returns to the control
	// freelist once the endpoint has serialized it.
	ctrl bool
	// done, while its sender still holds the lane lock (stageLocked to
	// settleLocked), is the request's inline completion flag: a flush sets
	// it and nobody needs waking. A request still queued at settle has
	// fan set instead — its sender parks until Thread.fanLeft reaches 0 —
	// and one nobody waits for (acks, retransmissions) has neither.
	done *bool
	fan  *Thread
}

// recvWaiter is a thread parked in recvAnyOf. pat.from is the waiter's own
// copy of the caller's set (its capacity survives recycling); got and at are
// the message and source index dispatchData matched.
type recvWaiter struct {
	t   *Thread
	pat recvPattern
	got *transport.Message
	at  int
	// err, when set by the failure sweep (failDoomedWaiters), marks a waiter
	// whose pattern can never match: the woken receiver unwinds with it
	// instead of reading got.
	err error
}

// Proc is one NCS process.
type Proc struct {
	cfg Config
	// after is the runtime's timer (Runtime.After), which retransmit, rate,
	// flush and heartbeat timers ride; on a virtual runtime it also counts
	// every arm and fire for Leaks.
	after func(d time.Duration, fn func())

	// store holds delivered-but-unclaimed data messages.
	store   []*transport.Message
	waiters []*recvWaiter

	// waiterFree recycles the receive path's per-call bookkeeping structs
	// (scheduler domain; the send path's freelists are per lane).
	waiterFree []*recvWaiter
	// chanCloses counts this end's channel closes and finalizations
	// (scheduler domain): while it is zero and no peer is dead, no receive
	// can be doomed, and recvAnyOf skips the check.
	chanCloses int

	// flushTimers counts armed flush-wheel timers process-wide (each lane
	// carries one wheel, see lane.go) — the per-lane-wheel invariant a test
	// asserts.
	flushTimers atomic.Int64

	// channels holds every open channel, indexed by peer and channel ID
	// (chantable.go). Default channels (ID 0) are created lazily from the
	// Config templates; explicit channels come from Open and signaling.
	// Every send and every arriving frame looks a channel up, foreign
	// goroutines included (routeFrame): a read takes no lock, hashes nothing
	// and writes nothing shared; channel *state* is guarded by the owning
	// lane's mutex.
	channels chanTable

	threads  []*Thread
	userLive int
	closing  atomic.Bool
	started  bool

	// The send/recv engine (lane.go): at least one lane. laneDriver is its
	// execution vehicle — the two system threads, goroutine engines, or
	// vclock event callbacks; laneThread, laneStop and laneWG belong to the
	// latter two.
	lanes      []*lane
	laneDriver engineDriver
	laneThread *mts.Thread
	laneStop   chan struct{}
	laneWG     sync.WaitGroup
	laneBS     transport.BatchSender
	shutdownFn func()
	// readerDelivers records the carrier's transport.ReaderDelivery
	// declaration: frames arrive on the goroutine a blocked Send waits for,
	// so routeFrame neither runs a pass nor registers a channel (lane.go,
	// "Lock order").
	readerDelivers bool

	// groupSeq numbers Groups for their trace lanes (see coll.go).
	groupSeq int

	// giveUp observes error-control give-ups (OnException); nil by default.
	giveUp func(error)

	// sigRefSeq allocates call references for OpenCall (scheduler domain;
	// see signal.go). An outgoing call is its channel in chanOpening.
	sigRefSeq uint32

	// Failure domain (scheduler domain; see failure.go): hbPeers is the
	// detector's per-peer beat state, hbMisses the resolved miss budget,
	// deadPeers the peers declared dead (cleared by a fresh OpenCall or an
	// incoming SETUP from the peer).
	hbPeers   map[ProcID]*hbPeer
	hbMisses  int
	deadPeers map[ProcID]*PeerDeadError

	// Stats. Atomic: these proc-wide totals are written by threads in the
	// scheduler domain and read live by foreign goroutines (tests,
	// benchmarks), which hold no lock the writers hold.
	sent, received atomic.Int64

	// Lifecycle balance counters (signal.go): paired ledgers that must
	// match at quiesce — the churn scenarios' zero-leak assertion — plus
	// the setup funnel. Atomic for the same reason as above. The ring
	// ledger is not here: pushes are counted under each ring's lock and
	// drains under the lane lock (Lifecycle sums them).
	statOpened, statClosed               atomic.Int64
	statSetupsSent, statSetupsAccepted   atomic.Int64
	statSetupsRejected, statSetupRetries atomic.Int64
	statVCBound, statVCRel               atomic.Int64
	statTimersArmed, statTimersFired     atomic.Int64
	statLateCtrl, statBadSignaling       atomic.Int64
	statBadControl, statStrayData        atomic.Int64
}

// New builds an NCS process: the paper's NCS_init. Its system threads are
// created immediately at the highest priority: the paper's send and receive
// pair under the thread driver, or the lanes' keeper thread when the lane
// engines run (on a frame carrier — Mem, real TCP, udpatm, SimMesh — at
// more than one lane).
func New(cfg Config) *Proc {
	if cfg.Endpoint.Proc() != cfg.ID {
		panic(fmt.Sprintf("core: id %d != endpoint proc %d", cfg.ID, cfg.Endpoint.Proc()))
	}
	p := &Proc{cfg: cfg, after: cfg.RT.After}
	if cfg.RT.Virtual() {
		// Virtual-time runs assert exact timer balance at quiesce
		// (Proc.Leaks): wrap the runtime's timer so every arm and fire is
		// counted. Real mode skips the wrap — the closure costs
		// allocations the alloc-pinned hot paths cannot afford, and
		// wall-clock timers legitimately outlive a sampling instant.
		p.after = func(d time.Duration, fn func()) {
			p.statTimersArmed.Add(1)
			cfg.RT.After(d, func() {
				p.statTimersFired.Add(1)
				fn()
			})
		}
	}
	// Ring-fed lane engines run outside the scheduler's threads, so they
	// engage only when that is transparent: more than one resolved lane, a
	// frame-capable carrier, and none of the hooks that assume all protocol
	// work happens on a scheduler thread (receive charging, arrival polls).
	// On a virtual runtime the lanes run as events on its clock. Everything
	// else gets one lane under the thread driver (see engineDriver in
	// lane.go).
	lanes := resolveLanes(cfg.SendLanes)
	if r := resolveLanes(cfg.RecvLanes); r > lanes {
		lanes = r
	}
	fc, frames := cfg.Endpoint.(transport.FrameCarrier)
	if lanes > 1 && frames && cfg.RecvCharge == nil && cfg.ArrivalPollDelay == nil {
		p.initLanes(lanes, fc)
	} else {
		p.initThreadLane()
	}
	p.startHeartbeat()
	return p
}

// resolveLanes maps a Config lane count to an effective one: 0 defaults to
// min(GOMAXPROCS, 4), anything else clamps to at least 1.
func resolveLanes(n int) int {
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
		if n > 4 {
			n = 4
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// ID returns the process identity.
func (p *Proc) ID() ProcID { return p.cfg.ID }

// RT returns the process runtime.
func (p *Proc) RT() *mts.Runtime { return p.cfg.RT }

// Sent returns the number of user messages sent.
func (p *Proc) Sent() int64 { return p.sent.Load() }

// Received returns the number of user messages consumed.
func (p *Proc) Received() int64 { return p.received.Load() }

// OnException installs an observer of error-control give-ups (paper §3.1,
// "Exception Handling"): fn gets one report, outside the lane lock, each
// time go-back-N abandons messages (Abandoned). The default is none. It
// stays only because bench/ counts give-ups through it.
func (p *Proc) OnException(fn func(error)) { p.giveUp = fn }

// Thread is one NCS user thread: the handle the application body receives.
type Thread struct {
	proc *Proc
	idx  int
	mt   *mts.Thread
	// blockPermit banks an Unblock that raced ahead of the Block it was
	// meant to release, so NCS_block/NCS_unblock pairs cannot lose a
	// wakeup regardless of scheduling order.
	blockPermit bool
	// fanLeft counts this thread's requests still queued (a Send is a fan
	// of one, coll.go's fanSend a fan of many); the thread parks until the
	// last one is retired.
	fanLeft int
	// sendDone is laneSend's inline completion flag: a thread has at most
	// one outstanding Send, so one reusable field avoids a per-send heap
	// escape. Written only under the lane lock.
	sendDone bool
	// sendErr is why the close sweep failed this thread's send or fan-out
	// (failSendsLocked), written under the lane lock before the wakeup.
	sendErr error
}

// Idx returns the thread's NCS index within its process (the paper's
// THREAD0/THREAD1 numbering).
func (t *Thread) Idx() int { return t.idx }

// Proc returns the owning process.
func (t *Thread) Proc() *Proc { return t.proc }

// MT returns the underlying scheduler thread.
func (t *Thread) MT() *mts.Thread { return t.mt }

// TCreate registers a user compute thread: the paper's NCS_t_create. It may
// be called before Start or from a running thread.
func (p *Proc) TCreate(name string, prio int, body func(*Thread)) *Thread {
	t := &Thread{proc: p, idx: len(p.threads)}
	p.threads = append(p.threads, t)
	p.userLive++
	t.mt = p.cfg.RT.Create(name, prio, func(mt *mts.Thread) {
		p.traceThread(t, trace.Compute)
		body(t)
		p.traceThread(t, trace.Idle)
		p.traceClose(t)
		p.userDone()
	})
	return t
}

// Threads returns the user threads in creation order.
func (p *Proc) Threads() []*Thread { return p.threads }

// Start runs the process's runtime until all user threads finish: the
// paper's NCS_start. Only for real-time transports — simulation harnesses
// drive all processes through the engine instead.
func (p *Proc) Start() {
	p.started = true
	p.cfg.RT.Run()
}

// userDone runs when a user thread body returns; the last one shuts the
// system threads down so the runtime (or simulation) can terminate.
func (p *Proc) userDone() {
	p.userLive--
	if p.userLive > 0 {
		return
	}
	p.closing.Store(true)
	for _, c := range p.channelsOrdered() {
		// Control still waiting for a piggyback ride must leave before the
		// system threads may exit: the peer's sender role may be blocked on
		// exactly this credit or ack, and the flush timer may never fire once
		// the runtime winds down.
		ln := c.lockLane()
		c.flushCtrl()
		c.flow.shutdown()
		ln.leave()
	}
	p.shutdownFn()
}

// channelsOrdered snapshots the channel table in (peer, id) order, the
// order the table is indexed in. Shutdown walks channels through
// state-changing steps (flushCtrl, discipline shutdown) whose relative order
// decides when each channel's last frames hit the wire, so that order — and
// with it the virtual-time timeline — must not depend on anything else.
func (p *Proc) channelsOrdered() []*Channel {
	var chans []*Channel
	p.channels.each(func(c *Channel) bool {
		chans = append(chans, c)
		return true
	})
	return chans
}

func (p *Proc) wakeIfIdle(t *mts.Thread, idleReason string) {
	if t.State() == mts.StateBlocked && t.BlockReason() == idleReason {
		p.cfg.RT.Unblock(t, false)
	}
}

// checkShutdownWake nudges the system threads toward exit once the last
// in-flight acknowledgement lands (or is abandoned) after the user threads
// have already finished. It may run under a lane lock (an engine processing
// the last ack) and the shutdown predicate itself takes lane locks, so the
// check is handed to the driver.
func (p *Proc) checkShutdownWake() {
	if p.closing.Load() {
		p.laneDriver.post(p, p.shutdownFn)
	}
}

func (p *Proc) traceThread(t *Thread, s trace.State) {
	if p.cfg.Tracer != nil {
		p.cfg.Tracer.Set(fmt.Sprintf("%s/t%d", p.cfg.TraceName, t.idx), s)
	}
}

func (p *Proc) traceClose(t *Thread) {
	if p.cfg.Tracer != nil {
		p.cfg.Tracer.Close(fmt.Sprintf("%s/t%d", p.cfg.TraceName, t.idx))
	}
}

func (p *Proc) traceSys(name string, s trace.State) {
	if p.cfg.Tracer != nil {
		p.cfg.Tracer.Set(p.cfg.TraceName+"/"+name, s)
	}
}

// ---------------------------------------------------------------------------
// Sending

// Send transmits data to (toProc, toThread): the paper's NCS_send. It blocks
// only the calling thread, until the transfer is handed to the network;
// meanwhile other threads of this process run — the overlap mechanism of
// Figure 4 (see laneSend for who performs the transfer). It returns the
// typed failure, *PeerDeadError or *ChannelClosedError.
func (t *Thread) Send(toThread int, toProc ProcID, data []byte) error {
	return t.SendTagged(0, toThread, toProc, data)
}

// SendTagged is Send with a user message tag (>= 0); an extension beyond
// the paper's primitives for library completeness. It travels on the
// default channel toward toProc.
func (t *Thread) SendTagged(tag int, toThread int, toProc ProcID, data []byte) error {
	if tag < 0 {
		panic("core: negative tags are reserved")
	}
	return t.proc.DefaultChannel(toProc).laneSend(t, tag, toThread, data)
}

// sendProcCtrl sends one proc-level control frame — signaling, a heartbeat —
// from the scheduler domain: payload is head followed by words, on channel 0
// toward the peer (the pre-provisioned default mesh), through the lane of
// the peer's default channel.
func (p *Proc) sendProcCtrl(to ProcID, tag int, head []byte, words ...uint32) {
	var ln *lane
	if peerInRange(to) {
		ln = p.DefaultChannel(to).lockLane()
	} else {
		// A peer the channel table cannot index (a SETUP's REJECT, a
		// RELEASE's RELEASE COMPLETE): the lane its default channel would
		// hash to, with no channel made.
		ln = p.lanes[p.laneIndex(to, 0)]
		ln.mu.Lock()
	}
	ln.pushCtrlLocked(to, 0, tag, head, words...)
	ln.leave()
}

// fanDone retires one queued request of a Send or a fan-out: the owning
// thread parks once for the whole fan and wakes when the last request has
// been handed to the carrier — or failed at teardown. Scheduler domain. A
// thread that retires its own last request in an inline drain is still
// running, so its Unblock is a no-op and it finds the count at 0 instead of
// parking.
func (p *Proc) fanDone(t *Thread) {
	t.fanLeft--
	if t.fanLeft == 0 {
		p.cfg.RT.Unblock(t.mt, false)
	}
}

// traceChan records a channel-lane state change (no-op without a Tracer):
// each channel gets its own timeline next to the system threads', so a
// traced run shows which class was on the wire when.
func (p *Proc) traceChan(c *Channel, s trace.State) {
	if c == nil || p.cfg.Tracer == nil {
		return
	}
	p.cfg.Tracer.Set(c.lane, s)
}

func (p *Proc) traceSysClose(name string) {
	if p.cfg.Tracer != nil {
		p.cfg.Tracer.Close(p.cfg.TraceName + "/" + name)
	}
}

// ---------------------------------------------------------------------------
// Receiving

// Recv receives the next message addressed to this thread and matching
// (fromThread, fromProc), either of which may be Any: the paper's NCS_recv.
// Only the calling thread blocks. It returns the payload and the actual
// source address.
func (t *Thread) Recv(fromThread int, fromProc ProcID) ([]byte, Addr) {
	return t.RecvTagged(Any, fromThread, fromProc)
}

// RecvTagged is Recv constrained to a user tag (or Any). The returned
// payload is the application's to keep, so the message's frame cannot
// recycle — RecvInto is the allocation-free variant.
func (t *Thread) RecvTagged(tag int, fromThread int, fromProc ProcID) ([]byte, Addr) {
	m, _ := t.recvAnyOf(recvPattern{tag: tag, from: []Addr{{Proc: fromProc, Thread: fromThread}}})
	return m.Data, srcOf(m)
}

// RecvInto is Recv delivering into the caller's buffer — the shape of the
// paper's actual NCS_recv(thread, process, buffer) call. It blocks like
// Recv, copies the payload into buf (panicking if buf is too small — the
// caller declared its capacity, exactly as in the C API), and returns the
// payload length and source. Because the payload is copied out, the
// message's pooled frame recycles into the wire pool, so a steady-state
// RecvInto loop over a pooled carrier (Mem, real TCP, UDP/ATM) allocates
// nothing — the allocation-free receive the host-overhead argument wants.
func (t *Thread) RecvInto(buf []byte, fromThread int, fromProc ProcID) (int, Addr) {
	return t.recvIntoOn(buf, 0, Any, []Addr{{Proc: fromProc, Thread: fromThread}})
}

// recvIntoOn is the blocking receive of the RecvInto variants: the payload
// is copied into the caller's buffer and the message's pooled frame returns
// to the wire pool, so a steady-state receive loop on a pooled carrier
// allocates nothing.
func (t *Thread) recvIntoOn(buf []byte, ch ChannelID, tag int, from []Addr) (int, Addr) {
	m, _ := t.recvAnyOf(recvPattern{ch: ch, tag: tag, from: from})
	if len(buf) < len(m.Data) {
		panic(fmt.Sprintf("core: RecvInto buffer (%d bytes) smaller than message (%d bytes)", len(buf), len(m.Data)))
	}
	n, src := copy(buf, m.Data), srcOf(m)
	budget.Add(budget.RecvCopied, n)
	m.Release()
	return n, src
}

// TryRecv is the non-blocking probe-and-receive variant; ok is false when
// no matching message is queued. It probes the default channel.
func (t *Thread) TryRecv(fromThread int, fromProc ProcID) (data []byte, from Addr, ok bool) {
	return t.tryRecv(recvPattern{tag: Any, from: []Addr{{Proc: fromProc, Thread: fromThread}}})
}

// tryRecv is the one non-blocking take: the first stored message pat
// matches, consumed, or ok false when there is none.
func (t *Thread) tryRecv(pat recvPattern) (data []byte, from Addr, ok bool) {
	i := t.proc.stored(&pat, t.idx)
	if i < 0 {
		return nil, Addr{}, false
	}
	m := t.take(i)
	return m.Data, srcOf(m), true
}

// MessagesAvailable reports whether a Recv with the given match would
// complete immediately on the default channel.
func (t *Thread) MessagesAvailable(fromThread int, fromProc ProcID) bool {
	return t.proc.stored(&recvPattern{tag: Any, from: []Addr{{Proc: fromProc, Thread: fromThread}}}, t.idx) >= 0
}

// recvPattern is the receive matching decision: the paper's
// NCS_recv(thread, process, ...) with -1 wildcards, widened to the §3.1
// many-to-1 class. A message matches when it travels on channel ch, carries
// tag (or tag is Any), and comes from some entry of from — either half of an
// entry may be Any; a single-source receive is a set of one. Channel
// matching is exact: default Recv sees only default-channel traffic, and a
// Channel.Recv sees only its own — the isolation that lets two disciplines
// coexist on one pair.
type recvPattern struct {
	ch   ChannelID
	tag  int
	from []Addr
}

// match returns the index of the first entry of pat.from the message
// (addressed to thread toThread) matches, or -1. The store scan and
// dispatchData both decide through it, so a receive matches the same message
// whether it arrived before or after the receiver parked.
func (pat *recvPattern) match(m *transport.Message, toThread int) int {
	if m.Channel == pat.ch && m.ToThread == toThread && (pat.tag == Any || m.Tag == pat.tag) {
		for i, a := range pat.from {
			if (a.Proc == m.From || a.Proc == Any) && (a.Thread == m.FromThread || a.Thread == Any) {
				return i
			}
		}
	}
	return -1
}

// srcOf returns a message's source address.
func srcOf(m *transport.Message) Addr { return Addr{Proc: m.From, Thread: m.FromThread} }

// stored returns the store position of the oldest message pat matches for
// thread toThread, or -1. Kept within the inlining budget: it is the store
// scan of recvAnyOf's hot path.
func (p *Proc) stored(pat *recvPattern, toThread int) int {
	for i, m := range p.store {
		if pat.match(m, toThread) >= 0 {
			return i
		}
	}
	return -1
}

// take removes store entry i and consumes it in t's context.
func (t *Thread) take(i int) *transport.Message {
	p := t.proc
	m := p.store[i]
	p.store = removeAt(p.store, i)
	p.consume(t.mt, m)
	p.received.Add(1)
	return m
}

// recvAnyOf is the one blocking receive: it returns the oldest stored
// message pat matches, else — unless pat is doomed — parks the calling
// thread until dispatchData hands it one, and returns the message with its
// matched source index. A doomed pattern, at entry or woken by the failure
// sweep, unwinds the calling thread with the typed cause (*PeerDeadError or
// *ChannelClosedError) as the panic value. pat.from is only
// read during the call — a parked waiter keeps its own copy — so a caller's
// set can live on its stack.
func (t *Thread) recvAnyOf(pat recvPattern) (*transport.Message, int) {
	p := t.proc
	if i := p.stored(&pat, t.idx); i >= 0 {
		m := t.take(i)
		return m, pat.match(m, t.idx)
	}
	var err error
	if len(p.deadPeers) != 0 || p.chanCloses != 0 { // else nothing can be doomed
		err = p.doomed(&pat)
	}
	if err == nil {
		w := p.getWaiter()
		w.t = t
		w.pat.ch, w.pat.tag = pat.ch, pat.tag
		for _, a := range pat.from { // by element: no memmove call per receive
			w.pat.from = append(w.pat.from, a)
		}
		p.waiters = append(p.waiters, w)
		p.traceThread(t, trace.Idle)
		t.mt.Park("ncs recv")
		p.traceThread(t, trace.Compute)
		m, j := w.got, w.at
		err = w.err
		p.putWaiter(w)
		if err == nil {
			p.received.Add(1)
			return m, j
		}
	}
	panic(err)
}

// getWaiter draws a recvWaiter from the freelist (or allocates); putWaiter
// returns one once the woken receiver has read its match, keeping the
// capacity of its from copy. Scheduler-domain only, like the queues it feeds.
func (p *Proc) getWaiter() *recvWaiter {
	if n := len(p.waiterFree); n > 0 {
		w := p.waiterFree[n-1]
		p.waiterFree = p.waiterFree[:n-1]
		return w
	}
	return &recvWaiter{}
}

func (p *Proc) putWaiter(w *recvWaiter) {
	*w = recvWaiter{pat: recvPattern{from: w.pat.from[:0]}}
	p.waiterFree = append(p.waiterFree, w)
}

// collect receives one message pat matches from every entry of pat.from, in
// arrival order — a slow source delays only its own entry, never messages
// already delivered — and hands each to fn with keys[i] for the entry i it
// matched. Matched entries leave pat.from and keys in order, so a source
// listed twice fills its entries in per-pair FIFO order. Clobbers both.
func (t *Thread) collect(pat recvPattern, keys []int, fn func(key int, m *transport.Message)) {
	for len(pat.from) > 0 {
		m, i := t.recvAnyOf(pat)
		key := keys[i]
		pat.from = append(pat.from[:i], pat.from[i+1:]...)
		keys = append(keys[:i], keys[i+1:]...)
		fn(key, m)
	}
}

// consume charges the host-side receive cost (stack-to-application copy) in
// the context of the consuming scheduler thread.
func (p *Proc) consume(mt *mts.Thread, m *transport.Message) {
	if p.cfg.RecvCharge != nil {
		p.cfg.RecvCharge(mt, len(m.Data)+transport.HeaderSize)
	}
}

// removeAt deletes s[i] in order and nils the slot it vacates at the end, so
// the backing array of the store (or the waiter list) does not go on pinning
// a message that was consumed or a waiter that was recycled.
func removeAt[T any](s []*T, i int) []*T {
	copy(s[i:], s[i+1:])
	s[len(s)-1] = nil
	return s[:len(s)-1]
}

// dispatchData hands a data message to the oldest parked waiter whose
// pattern matches it, or stores it (scheduler domain; rt is the draining
// thread, see lane.drain).
func (p *Proc) dispatchData(rt *mts.Thread, m *transport.Message) {
	for i, w := range p.waiters {
		if j := w.pat.match(m, w.t.idx); j >= 0 {
			p.waiters = removeAt(p.waiters, i)
			// The receive thread performs the stack-to-app copy in its
			// own context, then wakes the compute thread.
			p.consume(rt, m)
			w.got, w.at = m, j
			p.cfg.RT.Unblock(w.t.mt, false)
			return
		}
	}
	p.store = append(p.store, m)
}

// ---------------------------------------------------------------------------
// Thread utilities

// Compute runs application work in the runtime's mode (mts.Thread.Compute:
// a virtual runtime charges cost, a real one runs fn), tracing it as
// computation.
func (t *Thread) Compute(cost time.Duration, fn func()) {
	t.proc.traceThread(t, trace.Compute)
	t.mt.Compute(cost, fn)
}

// Yield is the paper's voluntary context switch.
func (t *Thread) Yield() { t.mt.Yield() }

// Block parks the thread until another thread calls Unblock: the paper's
// NCS_block (used by the JPEG host, Figure 17). An Unblock that already
// happened is consumed immediately instead of being lost.
func (t *Thread) Block() {
	if t.blockPermit {
		t.blockPermit = false
		return
	}
	t.proc.traceThread(t, trace.Idle)
	t.mt.Park("ncs block")
	t.proc.traceThread(t, trace.Compute)
}

// Unblock wakes a thread parked in Block, or banks a permit if it has not
// blocked yet: the paper's NCS_unblock.
func (t *Thread) Unblock(other *Thread) {
	if other.mt.State() == mts.StateBlocked && other.mt.BlockReason() == "ncs block" {
		t.proc.cfg.RT.Unblock(other.mt, false)
		return
	}
	other.blockPermit = true
}

// Bcast sends data to every address in list: the paper's NCS_bcast
// (1-to-many group communication). Transfers are queued in list order.
// This is the linear O(N) path — the sender serializes one copy per
// destination, one Send each; Group.Bcast is the logarithmic tree
// alternative, whose copies at each hop leave as one fan-out. It returns
// the failed sends' errors joined.
func (t *Thread) Bcast(list []Addr, data []byte) (err error) {
	for _, a := range list {
		err = errors.Join(err, t.Send(a.Thread, a.Proc, data))
	}
	return err
}

// Gather receives one message from every address in list (many-to-1),
// returning payloads in list order. Arrivals complete out of order: a slow
// peer delays only its own slot, never payloads already delivered (each
// source's messages still fill its list slots in per-pair FIFO order).
// Group.Gather is the tree-structured alternative for large N; this linear
// form stays because its leaves just Send, which no Group op expresses.
func (t *Thread) Gather(list []Addr) [][]byte {
	out := make([][]byte, len(list))
	slot := make([]int, len(list))
	for i := range slot {
		slot[i] = i
	}
	t.collect(recvPattern{tag: Any, from: append([]Addr(nil), list...)}, slot, func(i int, m *transport.Message) {
		out[i] = m.Data
	})
	return out
}

// Reduce gathers one payload from every address in list and folds them
// with fn, seeded by own: the paper's many-to-1 class with a combining
// function, where the root calls Reduce and the leaves just Send. Payloads
// fold in *arrival* order, so one slow peer never head-of-line-blocks
// contributions already delivered — fn must therefore be commutative as
// well as associative (sums, maxima, concatenation-by-key). Group.Reduce is
// the tree-structured alternative for large N.
func (t *Thread) Reduce(list []Addr, own []byte, fn func(acc, next []byte) []byte) []byte {
	acc := own
	held := make([]*transport.Message, 0, len(list))
	t.collect(recvPattern{tag: Any, from: append([]Addr(nil), list...)}, make([]int, len(list)), func(_ int, m *transport.Message) {
		acc = fn(acc, m.Data)
		held = append(held, m)
	})
	acc = ownedResult(acc, own)
	releaseAll(held)
	return acc
}
