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
// With Config.SendLanes/RecvLanes = 1 (the GOMAXPROCS=1 default) the
// process runs the paper's exact model: one send and one receive system
// thread at top priority, strict 9-level priority across channels,
// per-channel flush timers. At lane counts above one the pair shards into
// per-lane engines (lane.go), and each lane engine is an adaptive
// scheduler:
//
//   - Deficit round robin across the lane's data channels (drr.go):
//     ChannelConfig.Weight (default priority+1) × 2 KB of service per
//     round, control strictly above all data, higher priority still
//     preempting within the round — bounding starvation instead of
//     permitting it.
//   - Lane-aware control coalescing (lane.go): an expiring CtrlFlushDelay
//     window first tries to ride a sibling channel's queued or imminent
//     data frame toward the same peer, and flush timers share one
//     per-lane wheel instead of one timer per channel.
//   - Hot-lane rebalancing (rebalance.go): per-lane load EWMAs drive a
//     periodic tick (Config.RebalanceInterval; negative disables; in real
//     mode it starts with the proc's second channel) that
//     migrates idle-safe sequenced channels from the hottest lane to the
//     coldest, plus an enqueue-time steal under extreme skew.
//     Config.LaneHash overrides initial placement; ChannelConfig.Lane
//     pins a channel immovably.
//
// Proc.LaneStats reports the per-lane view: piggyback share, coalesced
// control words, DRR rounds, migrations, and steals.
//
// # Execution modes
//
// The lane engines run in one of two modes, selected per Proc:
//
//   - Real mode (default): each lane engine is a goroutine; timers are
//     wall-clock (the rebalance ticker in clockseam.go — the package's one
//     sanctioned wall-clock contact — and whatever Config.After supplies).
//     This is what every live transport and benchmark uses.
//   - Virtual mode (Config.VirtualTime, requires Config.After): the same
//     lane code runs as event callbacks on a discrete-event engine's clock
//     — no lane goroutines at all. Events and the threads they dispatch
//     execute strictly one at a time in the engine's goroutine, ordered by
//     the event queue's (time, seq) heap, so a run is deterministic: the
//     same workload and seed reproduce the timeline byte for byte. Code in
//     this package must therefore never let ordering depend on Go map
//     iteration or goroutine scheduling (see Proc.channelsOrdered).
//
// NewVirtualMesh builds the standard virtual-mode arrangement — N procs on
// one engine over a frame-granular fabric — and TimelineHash fingerprints
// a run for determinism assertions. The seam between the modes is
// engineDriver in lane.go.
package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/list"
	"repro/internal/mts"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/work"
)

// ProcID aliases the transport process identifier.
type ProcID = transport.ProcID

// Any is the wildcard (-1) in receive matching, as in the paper's
// NCS_recv(-1, -1, ...).
const Any = transport.Any

// Reserved control tags (negative; user tags are >= 0).
const (
	tagFlowAck    = -2
	tagBarrier    = -3
	tagBarrierRel = -4
	tagGBNAck     = -5
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
	// Compute executes application work (sim: charge cost; real: run fn).
	Compute work.Compute
	// RecvCharge, if set, is the host CPU cost of moving an n-byte message
	// from the protocol stack to the application, charged at consume time.
	RecvCharge func(t *mts.Thread, n int)
	// Flow selects the flow-control discipline (nil = NoFlowControl, the
	// paper's Approach-1 default, which relies on p4/TCP underneath).
	Flow FlowControl
	// Error selects the error-control discipline (nil = NoErrorControl).
	Error ErrorControl
	// After schedules fn after a delay in the scheduler domain; retransmit
	// and rate timers use it. Defaults to RT.After (real time). Sim
	// harnesses must pass the engine's virtual timer.
	After func(d time.Duration, fn func())
	// VirtualTime declares that the proc executes on a discrete-event loop:
	// After is the simulation engine's virtual timer and every internal
	// engine (lane steps, the rebalancer tick, drain hand-offs) must ride
	// it as clock events instead of goroutines, tickers, or PostAsync.
	// This is what lets the sharded lane hot path run under a sim harness —
	// N procs on one shared clock with a deterministic timeline — instead
	// of falling back to the classic two-thread path. Requires After;
	// NewVirtualMesh sets both.
	VirtualTime bool
	// CtrlFlushDelay bounds how long a channel's pending reverse-direction
	// control (cumulative credit advertisements, acks) may wait to
	// piggyback on a data frame before a standalone control frame flushes
	// it. 0 selects DefaultCtrlFlushDelay; negative disables the piggyback
	// window entirely — every control word flushes standalone the moment
	// it is produced (the pre-v3 wire behavior, useful for experiments
	// isolating the piggyback effect).
	CtrlFlushDelay time.Duration
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
	// SendLanes and RecvLanes select the sharded multi-core hot path (see
	// lane.go): 0 defaults to min(GOMAXPROCS, 4), and the larger of the two
	// resolved values becomes the lane count (each lane is a combined
	// send/recv engine). A resolved count of 1 — always the case on a
	// single-core GOMAXPROCS — keeps the paper's classic two-system-thread
	// path exactly. Sharding also requires a transport.FrameCarrier
	// endpoint (Mem, real TCP, SimMesh; udpatm, SimTCP and SimATM keep the
	// classic path at any lane count) and engages in real mode (no
	// RecvCharge, ArrivalPollDelay, or custom After hook) or under a
	// VirtualTime discrete-event loop; the classic sim harnesses'
	// RecvCharge/poll machinery remains scheduler-domain by construction
	// and keeps the classic path.
	SendLanes int
	RecvLanes int
	// RebalanceInterval is the hot-lane rebalancer's scan period (sharded
	// mode only): every interval the proc compares per-lane load EWMAs and
	// migrates one idle-safe channel from the hottest lane to the coldest.
	// 0 selects DefaultRebalanceInterval; negative disables rebalancing
	// (channels stay on their hash- or pin-assigned lane forever).
	RebalanceInterval time.Duration
	// LaneHash overrides the default peer→lane placement hash (sharded
	// mode only): a channel with no explicit ChannelConfig.Lane lands on
	// lane LaneHash(peer) mod lane count. Benchmarks use it to reproduce
	// skewed placements; channels placed through it remain migratable by
	// the rebalancer (unlike explicit pins).
	LaneHash func(ProcID) int
	// Admission judges incoming signaled call setups (Proc.OpenCall at the
	// peer): nil admits everything. Rejections travel back to the caller
	// as typed causes; see AdmissionPolicy in signal.go.
	Admission AdmissionPolicy
	// SigIdleTimeout, when positive, arms an idle reaper on every signaled
	// channel: a channel that moves no traffic for a full period is closed
	// from this end — the survival path against a peer that crashed after
	// call setup. 0 disables (the default).
	SigIdleTimeout time.Duration
	// OnAccept, when set, runs in the scheduler domain for every incoming
	// signaled call this process admits, handing the application its end of
	// the channel (typically to TCreate a serving thread). The channel is
	// OPEN and the CONNECT already on its way when the hook runs.
	OnAccept func(*Channel)
	// AcceptQueue, when positive, bounds a listener-side queue of incoming
	// SETUPs served one per scheduler pass — backpressure instead of the
	// instant synchronous accept when the app is slow in OnAccept; a SETUP
	// arriving into a full queue is rejected with CauseBusy. 0 keeps the
	// synchronous accept path (the default).
	AcceptQueue int
	// Heartbeat configures the per-peer failure detector (failure.go):
	// every Interval the proc beats each peer it has channels to over the
	// channel-0 signaling band and, after Misses consecutive silent
	// intervals, declares the peer dead — force-closing every channel to it
	// and failing blocked senders, receivers, and collectives with the
	// typed *PeerDeadError. Interval 0 disables detection (the default).
	// All timers ride Config.After, so detection is deterministic under a
	// VirtualTime mesh.
	Heartbeat Heartbeat
}

// sendReq is one queued transfer for the send system thread.
type sendReq struct {
	m *transport.Message
	// ch is the channel the message travels on; nil for control traffic
	// and raw retransmissions, which bypass admission.
	ch *Channel
	// caller is parked until the send thread finishes the transfer; nil
	// for internally generated traffic (acks, retransmissions).
	caller *mts.Thread
	// raw skips flow/error processing: the message was already stamped
	// (a go-back-N retransmission must keep its original sequence).
	raw bool
	// ctrl marks a pooled control message that returns to the control
	// freelist once the endpoint has serialized it.
	ctrl bool
	// flowOK records that flow control already admitted this request (a
	// deferred request re-enqueued with its credit attached).
	flowOK bool
	// fan, when non-nil, marks one request of a fan-out send: the thread
	// parked once for the whole fan and wakes when every member request has
	// flushed (or failed), since the shared payload must stay stable until
	// the last copy is serialized.
	fan *Thread
	// done, when non-nil, is the sharded inline-send completion flag
	// (Thread.sendDone): the sender is still inside lane.send holding the
	// lane lock, so completion just sets the flag instead of waking anyone.
	// Mutually exclusive with caller (see lane.send).
	done *bool
}

// recvWaiter is a thread parked in Recv.
type recvWaiter struct {
	t          *Thread
	ch         ChannelID
	fromThread int
	fromProc   ProcID
	tag        int
	// multi, when non-nil, overrides (fromThread, fromProc): the waiter
	// matches a message from *any* address in the set. Collectives and the
	// out-of-order Gather/Reduce paths use it so one slow peer cannot
	// head-of-line-block payloads that already arrived.
	multi []Addr
	got   *transport.Message
	// err, when set by the failure sweep (failDeadWaiters), marks a waiter
	// whose pattern can only match dead peers: the woken receiver re-raises
	// it instead of reading got.
	err error
}

// Proc is one NCS process.
type Proc struct {
	cfg Config

	sendThread *mts.Thread
	recvThread *mts.Thread

	// sendQ and rxIn are per-priority head-indexed FIFO queues: the send
	// and receive system threads service higher-priority channels first,
	// with control traffic (credits, acks, retransmissions) above every
	// data level.
	sendQ prioQueue[*sendReq]
	rxIn  prioQueue[*transport.Message]

	// store holds delivered-but-unclaimed data messages.
	store   []*transport.Message
	waiters []*recvWaiter

	// reqFree, waiterFree, ctrlFree, and dataFree recycle the per-call
	// bookkeeping structs of the send/recv hot paths. All access happens in
	// the scheduler domain, so no locking is needed. dataFree recycles
	// sender-side data Message structs: every carrier serializes before
	// Send returns and both error-control disciplines buffer private
	// copies, so once flushRun has handed a data frame to the endpoint
	// nothing references the struct and it can carry the next Send.
	reqFree    []*sendReq
	waiterFree []*recvWaiter
	ctrlFree   []*transport.Message
	dataFree   []*transport.Message

	// sendRun and batchMsgs are the send loop's burst scratch: the
	// same-destination run under accumulation and the message vector
	// handed to a transport.BatchSender. Only the send system thread
	// touches them.
	sendRun   []*sendReq
	batchMsgs []*transport.Message

	// ctrlFlush is the resolved CtrlFlushDelay.
	ctrlFlush time.Duration

	// Classic-mode flush wheel: one timer covers every channel whose
	// piggyback window is running (sharded lanes each carry their own, see
	// lane.go). flushTimers counts armed flush timers process-wide in both
	// modes — the per-lane-wheel invariant a test asserts.
	flushQ      list.FIFO[*Channel]
	wheelOn     bool
	wheelFn     func()
	flushTimers atomic.Int64

	// Hot-lane rebalancer (sharded mode; see rebalance.go): rebalEvery is
	// the resolved RebalanceInterval (0 = disabled), rebalTick the tick
	// counter migration cooldowns compare against.
	rebalEvery time.Duration
	rebalTick  atomic.Int64
	rebalOn    atomic.Bool // the real-mode ticker goroutine has been started

	// channels holds every open channel, keyed by (peer, channel ID).
	// Default channels (ID 0) are created lazily from the Config
	// templates; explicit channels come from Open. chanMu guards the map
	// in both modes (in sharded mode foreign goroutines resolve channels
	// in routeFrame); channel *state* is guarded by the owning lane's
	// mutex in sharded mode and by the scheduler domain classically.
	chanMu   sync.RWMutex
	channels map[chanKey]*Channel

	threads  []*Thread
	userLive int
	closing  atomic.Bool
	started  bool

	// Sharded hot path (lane.go); empty in the classic configuration.
	// laneDriver is the execution seam: goroutine engines in real mode,
	// vclock event callbacks in virtual mode.
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

	// bars holds root-collected barrier state machines keyed by group
	// membership hash (see barrier.go); groupSeq numbers Groups for their
	// trace lanes (see coll.go).
	bars     map[uint32]*barrierState
	groupSeq int

	onException func(error)

	// Signaled-call state (scheduler domain; see signal.go): sigCalls holds
	// outstanding outgoing setups by call reference, sigRefSeq allocates
	// references.
	sigCalls  map[uint32]*sigCall
	sigRefSeq uint32

	// Failure domain (scheduler domain; see failure.go): hbPeers is the
	// detector's per-peer beat state, hbMisses the resolved miss budget,
	// deadPeers the peers declared dead (cleared by a fresh OpenCall or an
	// incoming SETUP from the peer). acceptQ/acceptOn are the bounded
	// listener-side SETUP queue (Config.AcceptQueue).
	hbPeers   map[ProcID]*hbPeer
	hbMisses  int
	deadPeers map[ProcID]*PeerDeadError
	acceptQ   []pendingSetup
	acceptOn  bool

	// Stats. Atomic: in sharded mode the stats-reading side (tests,
	// benchmarks) races lane engines updating channel counters, and these
	// proc-wide totals are read the same way.
	sent, received atomic.Int64

	// Lifecycle balance counters (signal.go): paired ledgers that must
	// match at quiesce — the churn scenarios' zero-leak assertion — plus
	// the setup funnel. Atomic for the same reason as above.
	statOpened, statClosed               atomic.Int64
	statSetupsSent, statSetupsAccepted   atomic.Int64
	statSetupsRejected, statSetupRetries atomic.Int64
	statVCBound, statVCRel               atomic.Int64
	statTimersArmed, statTimersFired     atomic.Int64
	statRingPush, statRingDrain          atomic.Int64
	statLateCtrl                         atomic.Int64
}

// New builds an NCS process: the paper's NCS_init. System threads (send,
// receive, and whatever the flow/error controllers need) are created
// immediately at the highest priority.
func New(cfg Config) *Proc {
	if cfg.Endpoint.Proc() != cfg.ID {
		panic(fmt.Sprintf("core: id %d != endpoint proc %d", cfg.ID, cfg.Endpoint.Proc()))
	}
	if cfg.Compute == nil {
		cfg.Compute = work.Real()
	}
	customAfter := cfg.After != nil
	if cfg.VirtualTime && !customAfter {
		panic("core: VirtualTime requires Config.After (the engine's virtual timer)")
	}
	if cfg.After == nil {
		cfg.After = cfg.RT.After
	}
	p := &Proc{cfg: cfg}
	if cfg.VirtualTime {
		// Virtual-time runs assert exact timer balance at quiesce
		// (Proc.Leaks): wrap the injected timer so every arm and fire is
		// counted. Real mode skips the wrap — the closure costs
		// allocations the alloc-pinned hot paths cannot afford, and
		// wall-clock timers legitimately outlive a sampling instant.
		base := p.cfg.After
		p.cfg.After = func(d time.Duration, fn func()) {
			p.statTimersArmed.Add(1)
			base(d, func() {
				p.statTimersFired.Add(1)
				fn()
			})
		}
	}
	p.ctrlFlush = cfg.CtrlFlushDelay
	if p.ctrlFlush == 0 {
		p.ctrlFlush = DefaultCtrlFlushDelay
	}
	p.wheelFn = p.wheelFire
	p.rebalEvery = cfg.RebalanceInterval
	if p.rebalEvery == 0 {
		p.rebalEvery = DefaultRebalanceInterval
	} else if p.rebalEvery < 0 {
		p.rebalEvery = 0
	}
	p.channels = make(map[chanKey]*Channel)
	p.onException = func(err error) {
		// Wrap rather than format: a recovering thread (chaos harnesses,
		// redial loops) can still errors.As the typed cause — e.g.
		// *PeerDeadError — out of the panic value.
		panic(fmt.Errorf("core(proc %d): unhandled exception: %w", cfg.ID, err))
	}

	// Sharded mode engages only when it can be transparent: more than one
	// resolved lane, a frame-capable carrier, and none of the hooks that
	// assume all protocol work happens in the scheduler domain (receive
	// charging, arrival polls). A custom After hook normally means a
	// classic sim harness and keeps the two-thread path, unless the harness
	// declares VirtualTime — then the lanes themselves run as events on
	// that timer (see engineDriver in lane.go).
	lanes := resolveLanes(cfg.SendLanes)
	if r := resolveLanes(cfg.RecvLanes); r > lanes {
		lanes = r
	}
	fc, frames := cfg.Endpoint.(transport.FrameCarrier)
	if lanes > 1 && frames && cfg.RecvCharge == nil && cfg.ArrivalPollDelay == nil && (!customAfter || cfg.VirtualTime) {
		p.initLanes(lanes, fc)
		p.startRebalance()
		p.startHeartbeat()
		return p
	}

	cfg.Endpoint.SetHandler(p.deliver)
	p.sendThread = cfg.RT.Create(fmt.Sprintf("ncs%d-send", cfg.ID), mts.PrioSystem, p.sendLoop)
	p.recvThread = cfg.RT.Create(fmt.Sprintf("ncs%d-recv", cfg.ID), mts.PrioSystem, p.recvLoop)
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

// OnException installs the process's exception handler (paper §3.1,
// "Exception Handling"). The default panics.
func (p *Proc) OnException(fn func(error)) { p.onException = fn }

func (p *Proc) exception(err error) { p.onException(err) }

// Thread is one NCS user thread: the handle the application body receives.
type Thread struct {
	proc *Proc
	idx  int
	mt   *mts.Thread
	// blockPermit banks an Unblock that raced ahead of the Block it was
	// meant to release, so NCS_block/NCS_unblock pairs cannot lose a
	// wakeup regardless of scheduling order.
	blockPermit bool
	// fanLeft counts this thread's in-flight fan-out requests (coll.go's
	// fanSend); the thread parks until the send loop retires the last one.
	fanLeft int
	// sendDone is the sharded inline-send completion flag (lane.send): a
	// thread has at most one outstanding send, so one reusable field
	// avoids a per-send heap escape. Written only under the lane lock.
	sendDone bool
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
	if p.sharded() {
		for _, c := range p.channelsOrdered() {
			ln := c.lockLane()
			c.flushCtrl()
			c.flow.shutdown()
			c.errc.shutdown()
			ln.serviceLocked()
			ln.mu.Unlock()
			ln.runDrain()
		}
		p.wakeIfIdle(p.laneThread, "lanes idle")
		return
	}
	for _, c := range p.channelsOrdered() {
		// Control still waiting for a piggyback ride must leave before
		// the system threads may exit: the peer's sender role may be
		// blocked on exactly this credit or ack, and the flush timer may
		// never fire once the runtime winds down.
		c.flushCtrl()
		c.flow.shutdown()
		c.errc.shutdown()
	}
	// Wake the system threads only if they are parked at their idle
	// points; a thread parked mid-transfer (wire drain, flow credit) will
	// notice closing when it next returns to its idle check.
	p.wakeIfIdle(p.sendThread, "send idle")
	p.wakeIfIdle(p.recvThread, "recv idle")
}

// postScheduler defers fn into the scheduler domain from a context that may
// hold a lane lock. In real mode that is Runtime.PostAsync (runs between
// dispatches); under a virtual-time loop nothing ever drains the PostAsync
// queue — the sim engine only Dispatches — so fn becomes a zero-delay clock
// event instead.
func (p *Proc) postScheduler(fn func()) {
	if p.cfg.VirtualTime {
		p.cfg.After(0, fn)
		return
	}
	p.cfg.RT.PostAsync(fn)
}

// channelsOrdered snapshots the channel table in (peer, id) order. Shutdown
// walks channels through state-changing steps (flushCtrl, discipline
// shutdown) whose relative order decides when each channel's last frames hit
// the wire; iterating the map directly would make that order — and with it
// the virtual-time timeline — depend on Go's randomized map iteration.
func (p *Proc) channelsOrdered() []*Channel {
	p.chanMu.RLock()
	chans := make([]*Channel, 0, len(p.channels))
	for _, c := range p.channels {
		chans = append(chans, c)
	}
	p.chanMu.RUnlock()
	sort.Slice(chans, func(i, j int) bool {
		if chans[i].peer != chans[j].peer {
			return chans[i].peer < chans[j].peer
		}
		return chans[i].id < chans[j].id
	})
	return chans
}

func (p *Proc) wakeIfIdle(t *mts.Thread, idleReason string) {
	if t.State() == mts.StateBlocked && t.BlockReason() == idleReason {
		p.cfg.RT.Unblock(t, false)
	}
}

// mayShutdown reports whether system threads are free to exit: user threads
// are done and no channel's error control has anything awaiting
// acknowledgement.
func (p *Proc) mayShutdown() bool {
	if !p.closing.Load() {
		return false
	}
	for _, c := range p.channels {
		if c.errc.pending() != 0 {
			return false
		}
	}
	return true
}

// checkShutdownWake nudges the system threads toward exit once the last
// in-flight acknowledgement lands (or is abandoned) after the user threads
// have already finished.
func (p *Proc) checkShutdownWake() {
	if p.sharded() {
		// May run under a lane lock (an engine processing the last ack);
		// the shutdown predicate itself takes lane locks, so evaluate it
		// from the scheduler domain instead.
		if p.closing.Load() {
			p.postScheduler(p.shutdownFn)
		}
		return
	}
	if !p.mayShutdown() {
		return
	}
	p.wakeIfIdle(p.sendThread, "send idle")
	p.wakeIfIdle(p.recvThread, "recv idle")
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

// Send transmits data to (toProc, toThread): the paper's NCS_send. It wakes
// the send system thread and parks the calling thread until the transfer is
// handed to the network; meanwhile other threads of this process run — the
// overlap mechanism of Figure 4.
func (t *Thread) Send(toThread int, toProc ProcID, data []byte) {
	t.SendTagged(0, toThread, toProc, data)
}

// SendTagged is Send with a user message tag (>= 0); an extension beyond
// the paper's primitives for library completeness. It travels on the
// default channel toward toProc.
func (t *Thread) SendTagged(tag int, toThread int, toProc ProcID, data []byte) {
	if tag < 0 {
		panic("core: negative tags are reserved")
	}
	p := t.proc
	c := p.DefaultChannel(toProc)
	if c.lnp.Load() != nil {
		c.laneSend(t, tag, toThread, data)
		return
	}
	m := p.getDataMsg()
	m.From = p.cfg.ID
	m.To = toProc
	m.FromThread = t.idx
	m.ToThread = toThread
	m.Tag = tag
	m.Data = data
	p.sendOn(c, t, m)
}

// getReq draws a sendReq from the freelist (or allocates); putReq returns
// one once the send loop has finished with it. Deferred requests (owned by
// a flow/error controller awaiting re-enqueue) are recycled only after
// they finally transmit.
func (p *Proc) getReq() *sendReq {
	if n := len(p.reqFree); n > 0 {
		req := p.reqFree[n-1]
		p.reqFree = p.reqFree[:n-1]
		return req
	}
	return &sendReq{}
}

func (p *Proc) putReq(req *sendReq) {
	*req = sendReq{}
	p.reqFree = append(p.reqFree, req)
}

// failSend completes a gated send without transmitting it: the request is
// recycled and its caller (a thread parked in Send) unblocks. Disciplines
// use it at shutdown so a channel closing with deferred requests never
// leaves a Send hung forever; the caller cannot observe the failure
// directly (Send returns no error), so the failure is reported through
// the proc's exception handler.
func (p *Proc) failSend(req *sendReq) {
	caller, fan := req.caller, req.fan
	if !req.ctrl && req.m != nil {
		p.putDataMsg(req.m)
	}
	p.putReq(req)
	if caller != nil {
		p.cfg.RT.Unblock(caller, false)
	}
	if fan != nil {
		p.fanDone(fan)
	}
}

// failGated fails a batch of gated sends at channel teardown and reports
// them once through the exception handler — the shared tail of every
// discipline's shutdown.
func (p *Proc) failGated(c *Channel, reqs []*sendReq, gate string) {
	if len(reqs) == 0 {
		return
	}
	if ln := c.lnp.Load(); ln != nil {
		// Lane domain: recycle under the held lane lock, defer wakeups and
		// the exception to the drain.
		for _, req := range reqs {
			ln.failSendLocked(req)
		}
		if c.deadErr != nil {
			ln.errs = append(ln.errs, fmt.Errorf("core: channel %d to proc %d closed with %d sends still gated by %s: %w", c.id, c.peer, len(reqs), gate, c.deadErr))
		} else {
			ln.errs = append(ln.errs, fmt.Errorf("core: channel %d to proc %d closed with %d sends still gated by %s", c.id, c.peer, len(reqs), gate))
		}
		return
	}
	for _, req := range reqs {
		p.failSend(req)
	}
	if c.deadErr != nil {
		p.exception(fmt.Errorf("core: channel %d to proc %d closed with %d sends still gated by %s: %w", c.id, c.peer, len(reqs), gate, c.deadErr))
		return
	}
	p.exception(fmt.Errorf("core: channel %d to proc %d closed with %d sends still gated by %s", c.id, c.peer, len(reqs), gate))
}

// enqueueSend queues a request under its channel's priority level and wakes
// the send thread if it is parked at its idle point. If it is instead
// parked mid-transfer (wire drain, flow credit, a charged CPU burst), it
// will find the queue when it loops — a targeted wake there would corrupt
// whatever it is blocked on. Safe from any scheduler-domain context
// (threads, event handlers, timers). Control traffic (credits, acks,
// barrier messages) drains above every data priority: it is what reopens
// stalled windows, so no amount of queued bulk data may starve it. Raw
// retransmissions, though they bypass admission, carry full data payloads
// and drain at their own channel's priority — a lossy bulk channel's
// go-back-N bursts must not preempt a high-priority stream. They cannot
// starve behind gated data either: admission never blocks this queue (a
// non-admitted request is deferred, not waited on).
func (p *Proc) enqueueSend(req *sendReq) {
	level := ctrlLevel
	if req.m.Tag >= 0 && req.ch != nil {
		level = req.ch.priority
	}
	if req.ch != nil {
		if ln := req.ch.lnp.Load(); ln != nil {
			// Sharded: the caller (a discipline releasing a deferred
			// request, a retransmission timer) already holds the channel's
			// lane lock; the request joins the lane's queue and is serviced
			// by whoever completes the current lane entry (see lane.go).
			ln.pending.push(level, req)
			return
		}
	}
	p.sendQ.push(level, req)
	p.wakeIfIdle(p.sendThread, "send idle")
}

// sendCtrl queues a pooled control message: tag < 0, an optional uint32
// payload, addressed to the given peer and channel. The message and its
// 4-byte payload buffer recycle once the endpoint has serialized them, so
// a steady stream of credits/acks allocates nothing. Flow- and error-
// control payloads are *cumulative* counters (credit advertisements,
// cumulative acks) compared wrap-safely with wire.SeqNewer at the
// receiver, so those control frames survive lossy carriers: any later
// frame supersedes a dropped one.
func (p *Proc) sendCtrl(to ProcID, ch ChannelID, tag int, payload uint32, withPayload bool) {
	m := p.getCtrlMsg()
	m.From = p.cfg.ID
	m.To = to
	m.Channel = ch
	m.Tag = tag
	if withPayload {
		m.Data = wire.AppendUint32(m.Data[:0], payload)
	}
	req := p.getReq()
	req.m = m
	req.ctrl = true
	p.enqueueSend(req)
}

// sendCtrlVec is sendCtrl with a multi-word payload: one control frame
// carries a whole batch of queued acknowledgements (4 bytes each) — the
// flush path's framing for selective-repeat ack bursts. Consumers iterate
// the words with forEachCtrlWord.
func (p *Proc) sendCtrlVec(to ProcID, ch ChannelID, tag int, words []uint32) {
	if p.sharded() {
		// Scheduler-domain control toward a peer (barrier arrivals and
		// releases): route through the peer's default-channel lane.
		ln := p.DefaultChannel(to).lockLane()
		m := ln.getCtrlMsg()
		m.From = p.cfg.ID
		m.To = to
		m.Channel = ch
		m.Tag = tag
		for _, w := range words {
			m.Data = wire.AppendUint32(m.Data, w)
		}
		req := ln.getReq()
		req.m = m
		req.ctrl = true
		ln.pending.push(ctrlLevel, req)
		ln.serviceLocked()
		ln.mu.Unlock()
		ln.runDrain()
		return
	}
	m := p.getCtrlMsg()
	m.From = p.cfg.ID
	m.To = to
	m.Channel = ch
	m.Tag = tag
	for _, w := range words {
		m.Data = wire.AppendUint32(m.Data, w)
	}
	req := p.getReq()
	req.m = m
	req.ctrl = true
	p.enqueueSend(req)
}

// getCtrlMsg draws a control message from the freelist; its Data buffer is
// reset to zero length but keeps its backing array.
func (p *Proc) getCtrlMsg() *transport.Message {
	if n := len(p.ctrlFree); n > 0 {
		m := p.ctrlFree[n-1]
		p.ctrlFree = p.ctrlFree[:n-1]
		return m
	}
	return &transport.Message{Data: make([]byte, 0, 8)}
}

func (p *Proc) putCtrlMsg(m *transport.Message) {
	data := m.Data[:0]
	*m = transport.Message{Data: data}
	p.ctrlFree = append(p.ctrlFree, m)
}

// getDataMsg draws a sender-side data message from the freelist. Unlike
// control messages its Data field aliases the caller's payload, so put
// clears it entirely (pinning nothing between sends).
func (p *Proc) getDataMsg() *transport.Message {
	if n := len(p.dataFree); n > 0 {
		m := p.dataFree[n-1]
		p.dataFree = p.dataFree[:n-1]
		return m
	}
	return &transport.Message{}
}

func (p *Proc) putDataMsg(m *transport.Message) {
	*m = transport.Message{}
	p.dataFree = append(p.dataFree, m)
}

// maxSendBurst bounds one same-destination run handed to a carrier's
// batch path, so a saturating bulk stream cannot delay its own callers'
// wakeups (or a priority preemption point) indefinitely.
const maxSendBurst = 64

// sendLoop is the send system thread (Figure 8's "S"). It drains the
// priority queue highest level first — control traffic, then channels in
// descending priority order — a whole burst per wakeup: admitted requests
// accumulate into same-destination runs that go to the carrier through
// transport.BatchSender in one call when it offers batching, so
// per-message carrier costs (locks, wakeups, syscalls) amortize across
// the burst.
func (p *Proc) sendLoop(st *mts.Thread) {
	bs, batched := p.cfg.Endpoint.(transport.BatchSender)
	for {
		if p.sendQ.empty() {
			if p.mayShutdown() {
				p.traceSysClose("send")
				return
			}
			p.traceSys("send", trace.Idle)
			st.Park("send idle")
			continue
		}
		p.traceSys("send", trace.Comm)
		run := p.sendRun[:0]
		for !p.sendQ.empty() {
			req := p.sendQ.pop()
			// Data messages pass their channel's flow-control and
			// error-control admission; a controller that cannot admit now
			// takes ownership of the request and re-enqueues it later, so
			// this loop never blocks on data while control traffic
			// (credits, acks, retransmissions — raw requests bypass
			// admission) is waiting behind it.
			if req.m.Tag >= 0 && !req.raw {
				if req.ch.sendUnavailable() {
					// The channel closed while this request sat queued
					// (Send raced Close): fail it exactly like shutdown
					// failed the already-deferred ones, before any
					// discipline can admit it into a torn-down window.
					// Read the channel before failSend recycles the
					// request.
					c := req.ch
					p.failSend(req)
					p.exception(c.sendFailErr())
					continue
				}
				if !req.flowOK {
					if !req.ch.flow.admit(req) {
						continue
					}
					req.flowOK = true
				}
				if !req.ch.errc.admit(req) {
					continue
				}
			}
			// Reverse-direction control rides along: a departing data
			// frame (first transmission or retransmission alike) picks up
			// its channel's pending credit advertisement and ack.
			if req.m.Tag >= 0 && req.ch != nil {
				req.ch.attachPiggy(req.m)
			}
			if len(run) > 0 && (req.m.To != run[len(run)-1].m.To || len(run) >= maxSendBurst) {
				run = p.flushRun(st, bs, run)
			}
			run = append(run, req)
			if !batched {
				run = p.flushRun(st, bs, run)
			}
		}
		p.sendRun = p.flushRun(st, bs, run)
	}
}

// flushRun hands one same-destination run to the carrier — a single
// SendBatch call when it offers batching — then completes the requests:
// channel counters, caller wakeups, freelist recycling. It returns the
// emptied run slice for reuse.
func (p *Proc) flushRun(st *mts.Thread, bs transport.BatchSender, run []*sendReq) []*sendReq {
	if len(run) == 0 {
		return run
	}
	if p.cfg.Tracer != nil {
		for _, req := range run {
			p.traceChan(req.ch, trace.Comm)
		}
	}
	if bs != nil && len(run) > 1 {
		ms := p.batchMsgs[:0]
		for _, req := range run {
			ms = append(ms, req.m)
		}
		bs.SendBatch(st, ms)
		for i := range ms {
			ms[i] = nil
		}
		p.batchMsgs = ms[:0]
	} else {
		for _, req := range run {
			p.cfg.Endpoint.Send(st, req.m)
		}
	}
	for i, req := range run {
		if req.ch != nil && !req.raw {
			req.ch.sent.Add(1)
			req.ch.bytesSent.Add(int64(len(req.m.Data)))
		}
		p.traceChan(req.ch, trace.Idle)
		if req.caller != nil {
			p.cfg.RT.Unblock(req.caller, false)
		}
		if req.fan != nil {
			p.fanDone(req.fan)
		}
		// The transfer is on the wire and the caller woken: nothing
		// references the request anymore, so it (and its pooled message —
		// the endpoint serialized it, and the error-control disciplines
		// buffer private copies for retransmission) returns to the
		// freelist.
		if req.ctrl {
			p.putCtrlMsg(req.m)
		} else {
			p.putDataMsg(req.m)
		}
		p.putReq(req)
		run[i] = nil
	}
	return run[:0]
}

// fanDone retires one request of a fan-out send (coll.go's fanSend): the
// owning thread parks once for the whole fan and wakes when the last
// request has been handed to the carrier — or failed at teardown.
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

// RecvTagged is Recv constrained to a user tag (or Any).
func (t *Thread) RecvTagged(tag int, fromThread int, fromProc ProcID) ([]byte, Addr) {
	data, addr, _ := t.recvTagOut(tag, fromThread, fromProc)
	return data, addr
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
	return t.recvIntoOn(buf, 0, Any, fromThread, fromProc)
}

// TryRecv is the non-blocking probe-and-receive variant; ok is false when
// no matching message is queued. It probes the default channel.
func (t *Thread) TryRecv(fromThread int, fromProc ProcID) (data []byte, from Addr, ok bool) {
	return t.tryRecvOn(0, fromThread, fromProc)
}

func (t *Thread) tryRecvOn(ch ChannelID, fromThread int, fromProc ProcID) (data []byte, from Addr, ok bool) {
	p := t.proc
	i := p.matchStore(ch, Any, fromThread, fromProc, t.idx)
	if i < 0 {
		return nil, Addr{}, false
	}
	m := p.store[i]
	p.store = append(p.store[:i], p.store[i+1:]...)
	p.consume(t.mt, m)
	p.received.Add(1)
	return m.Data, Addr{Proc: m.From, Thread: m.FromThread}, true
}

// MessagesAvailable reports whether a Recv with the given match would
// complete immediately on the default channel.
func (t *Thread) MessagesAvailable(fromThread int, fromProc ProcID) bool {
	return t.proc.matchStore(0, Any, fromThread, fromProc, t.idx) >= 0
}

// consume charges the host-side receive cost (stack-to-application copy) in
// the context of the consuming scheduler thread.
func (p *Proc) consume(mt *mts.Thread, m *transport.Message) {
	if p.cfg.RecvCharge != nil {
		p.cfg.RecvCharge(mt, len(m.Data)+transport.HeaderSize)
	}
}

func (p *Proc) matchStore(ch ChannelID, tag, fromThread int, fromProc ProcID, toThread int) int {
	for i, m := range p.store {
		if p.matches(m, ch, tag, fromThread, fromProc, toThread) {
			return i
		}
	}
	return -1
}

// matches tests a receive pattern. Channel matching is exact: default
// Recv sees only default-channel traffic, and a Channel.Recv sees only its
// own — the isolation that lets two disciplines coexist on one pair.
func (p *Proc) matches(m *transport.Message, ch ChannelID, tag, fromThread int, fromProc ProcID, toThread int) bool {
	if m.Channel != ch {
		return false
	}
	if m.ToThread != toThread {
		return false
	}
	if tag != Any && m.Tag != tag {
		return false
	}
	if fromThread != Any && m.FromThread != fromThread {
		return false
	}
	if fromProc != ProcID(Any) && m.From != fromProc {
		return false
	}
	return true
}

// rxLevel places an arriving message in the receive priority queue:
// control above all data, data under its channel's priority (an unopened
// channel files at the bottom; recvLoop raises the exception).
func (p *Proc) rxLevel(m *transport.Message) int {
	if m.Tag < 0 {
		return ctrlLevel
	}
	if c := p.openChannel(m.From, m.Channel); c != nil {
		return c.priority
	}
	return 0
}

// deliver is the transport handler: it queues the raw message for the
// receive system thread and wakes it (Figure 8's "R").
func (p *Proc) deliver(m *transport.Message) {
	p.rxIn.push(p.rxLevel(m), m)
	if p.cfg.ArrivalPollDelay != nil {
		if d := p.cfg.ArrivalPollDelay(); d > 0 {
			// Poll-discovered arrival: wake the receive thread when the
			// underlying p4 poll would notice it. An earlier wake (a
			// later arrival during compute, or a natural switch) finds
			// this message too — polls inspect the whole queue.
			p.cfg.After(d, func() { p.wakeIfIdle(p.recvThread, "recv idle") })
			return
		}
	}
	p.wakeIfIdle(p.recvThread, "recv idle")
}

// recvLoop is the receive system thread: it demultiplexes arrivals by
// channel into control handling, parked waiters, or the message store,
// draining higher-priority channels first.
func (p *Proc) recvLoop(rt *mts.Thread) {
	for {
		if p.rxIn.empty() {
			if p.mayShutdown() {
				p.traceSysClose("recv")
				return
			}
			p.traceSys("recv", trace.Idle)
			rt.Park("recv idle")
			continue
		}
		m := p.rxIn.pop()
		p.traceSys("recv", trace.Comm)

		// Control traffic is consumed by the channel it belongs to; its
		// payload is read on the spot, so a pooled frame recycles
		// immediately — steady credit/ack streams allocate no rx buffers.
		if m.Tag < 0 {
			p.handleControl(m)
			m.Release()
			continue
		}
		c, ok := p.lookupChannel(m.From, m.Channel)
		if !ok {
			p.exception(fmt.Errorf("data on unopened channel %d from proc %d", m.Channel, m.From))
			m.Release()
			continue
		}
		// Piggybacked control applies before anything else: it is the
		// peer's receiver-role state for this channel and stays valid
		// whether this data copy turns out fresh, duplicate, or addressed
		// to a closed channel (standalone control on closed channels is
		// consumed too, and both words are supersede-safe). A sharded peer
		// may have coalesced a *sibling* channel's word onto this frame;
		// the word's stamped channel routes it.
		if m.HasCredit {
			cc := c
			if m.CreditChan != m.Channel {
				cc, _ = p.lookupChannel(m.From, m.CreditChan)
			}
			if cc != nil {
				cc.flow.onCredit(m.Credit)
			}
		}
		if m.HasAck {
			ca := c
			if m.AckChan != m.Channel {
				ca, _ = p.lookupChannel(m.From, m.AckChan)
			}
			if ca != nil {
				ca.errc.onAck(m.Ack)
			}
		}
		if c.closed {
			// This end tore the channel down; without teardown signaling
			// the peer may still be transmitting. Drop, and let its error
			// control give up as against a dead process.
			p.exception(fmt.Errorf("data on closed channel %d from proc %d", m.Channel, m.From))
			m.Release()
			continue
		}
		// Error control may suppress duplicates / out-of-order arrivals.
		if !c.errc.onData(m) {
			continue
		}
		c.received.Add(1)
		c.bytesReceived.Add(int64(len(m.Data)))
		// Flow control acknowledges the delivery (credit return).
		c.flow.onDelivered(m)
		p.dispatchData(rt, m)
	}
}

// waiterMatches tests an arriving message against a parked waiter's
// pattern: the usual single-source pattern, or the any-of set used by
// out-of-order collection.
func (p *Proc) waiterMatches(w *recvWaiter, m *transport.Message) bool {
	if w.multi == nil {
		return p.matches(m, w.ch, w.tag, w.fromThread, w.fromProc, w.t.idx)
	}
	if m.Channel != w.ch || m.ToThread != w.t.idx {
		return false
	}
	if w.tag != Any && m.Tag != w.tag {
		return false
	}
	return addrIndex(w.multi, m) >= 0
}

// addrIndex returns the first index in set matching the message's source
// address (Any wildcards an entry's thread), or -1.
func addrIndex(set []Addr, m *transport.Message) int {
	for i, a := range set {
		if a.Proc == m.From && (a.Thread == Any || a.Thread == m.FromThread) {
			return i
		}
	}
	return -1
}

// dispatchData hands a data message to a parked waiter or stores it.
func (p *Proc) dispatchData(rt *mts.Thread, m *transport.Message) {
	for i, w := range p.waiters {
		if p.waiterMatches(w, m) {
			p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
			// The receive thread performs the stack-to-app copy in its
			// own context, then wakes the compute thread.
			p.consume(rt, m)
			w.got = m
			p.cfg.RT.Unblock(w.t.mt, false)
			return
		}
	}
	p.store = append(p.store, m)
}

func (p *Proc) handleControl(m *transport.Message) {
	switch m.Tag {
	case tagFlowAck, tagGBNAck:
		// A closed channel stays in the table and still consumes control:
		// error control needs late acks to finish draining its in-flight
		// window, and cumulative credit advertisements are idempotent. A
		// channel nobody has open is almost always one a signaled close
		// just finalized out of the table — drop the late word and count.
		c, ok := p.lookupChannel(m.From, m.Channel)
		if !ok {
			p.statLateCtrl.Add(1)
			return
		}
		if m.Tag == tagFlowAck {
			c.flow.onControl(m)
		} else {
			c.errc.onControl(m)
		}
	case tagBarrier, tagBarrierRel:
		p.onBarrierMsg(m)
	case tagSigSetup, tagSigConnect, tagSigReject, tagSigRelease, tagSigRelComp, tagSigBeat:
		p.onSigMsg(m)
	default:
		p.exception(fmt.Errorf("unknown control tag %d from proc %d", m.Tag, m.From))
	}
}

// ---------------------------------------------------------------------------
// Thread utilities

// Compute runs application work through the mode hook, tracing it as
// computation.
func (t *Thread) Compute(cost time.Duration, fn func()) {
	t.proc.traceThread(t, trace.Compute)
	t.proc.cfg.Compute(t.mt, cost, fn)
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
// (1-to-many group communication). Transfers are queued in list order
// through the send system thread. This is the linear O(N) path — the
// sender serializes one copy per destination; Group.Bcast is the
// logarithmic tree alternative (and degenerates to this shape at
// Fanout >= N, which is how the scale benches A/B the two).
func (t *Thread) Bcast(list []Addr, data []byte) {
	for _, a := range list {
		t.Send(a.Thread, a.Proc, data)
	}
}

// Gather receives one message from every address in list (many-to-1),
// returning payloads in list order. Arrivals complete out of order: a slow
// peer delays only its own slot, never payloads already delivered (each
// source's messages still fill its list slots in per-pair FIFO order).
// Group.Gather is the tree-structured alternative for large N.
func (t *Thread) Gather(list []Addr) [][]byte {
	out := make([][]byte, len(list))
	pending := append([]Addr(nil), list...)
	slot := make([]int, len(list))
	for i := range slot {
		slot[i] = i
	}
	for len(pending) > 0 {
		m, i := t.recvAnyOf(0, Any, pending)
		out[slot[i]] = m.Data
		pending = append(pending[:i], pending[i+1:]...)
		slot = append(slot[:i], slot[i+1:]...)
	}
	return out
}
