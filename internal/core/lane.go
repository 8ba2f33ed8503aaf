package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/list"
	"repro/internal/mts"
	"repro/internal/ring"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file is the NCS_MPS send/recv engine: the one implementation of the
// protocol the paper gives to a send and a receive system thread per process
// (§4, Figure 8). Its state lives in *lanes*, each owning its own send
// scheduler, receive queue, freelists and flush wheel; every Proc has at
// least one. A channel lives on exactly one lane, fixed when it is opened
// (default: hash of the peer, overridable via ChannelConfig.Lane), so priority
// and per-channel FIFO ordering are preserved within a channel while
// independent channels run on separate cores.
//
// Who executes a lane is the engineDriver's business, not the protocol's.
// There are three (see "Engine drivers" below): the thread driver — the
// paper's own two system threads over a single lane, for carriers that
// charge or park the thread they are handed and for a resolved lane count of
// one — the goroutine driver (one engine goroutine per lane, senders
// servicing inline) and the virtual driver (lane engines as events on a
// discrete-event clock). What differs between them is confined to three
// functions of this file, and is execution only — the protocol's timing is
// the same under all three: who runs a service pass (lane.service), which
// thread the carrier is handed and whether the lane lock is dropped around
// that call (flushRunLocked), and how a finished request's wakeup travels
// (retireLocked).
//
// Execution domains. The mts scheduler is one domain — exactly one thread
// runs at a time — and each lane adds one:
//
//   - Lane domain: everything a channel owns (discipline state, piggyback
//     words, traffic counters, the lane's queues, freelists and pass
//     counters) is guarded by lane.mu. Senders enter it inline (laneSend
//     locks, enqueues, services, unlocks); arriving frames enter through a
//     multi-producer ring drained by an engine pass (the thread driver's
//     Handler-path messages go straight into rxq); timers enter through
//     Channel.wrapTimer.
//   - Scheduler domain: thread wakeups, receive matching (waiters/store)
//     and signaling state. Lane code never calls them directly — it
//     appends to the lane's out-queues (wake/fans/deliver) and a drain
//     runs them: inline when the caller is already in the scheduler
//     domain, otherwise via Runtime.Post, which runs between dispatches
//     (it queues the drain and, only if the proc has gone to sleep with
//     no thread runnable, hands it the runtime's one wake token — no
//     channel operation otherwise). Under the thread driver every entry
//     is in the scheduler domain already — a finished sender is
//     unblocked on the spot (retireLocked) — and lane.mu, never held
//     across a Park there, only keeps stats readers out.
//
// Who runs a pass. An engine pass (ingestLocked: batch → rxq → processLocked
// → serviceLocked → drain posted) belongs to whoever holds the ring's
// consumer role (package ring). Its home is the lane's engine goroutine,
// asleep on the empty ring (in virtual mode, the step event). In real mode
// the goroutine delivering a frame takes the role itself instead of waking
// the engine when the engine is asleep (so the ring is empty and the frame
// overtakes nothing), the payload is at most inlinePassMax, and lane.mu is
// free: it runs the pass over that one frame and gives the role back. That
// is Figure 8's receive step — demultiplex, wake the thread blocked in
// NCS_recv — in one goroutine hand-off (deliverer → receiving thread)
// instead of two (deliverer → engine → thread). Everything else is the
// engine's: long frames, a lane in use, and bursts (a frame arriving during an
// inline pass queues, and the claimant's Release wakes the engine for it).
//
// inlinePassMax (4 KB) is measured, not tuned per workload. The pass costs
// the same at any size (it copies no payload), but the hop it saves is worth
// about what the sender spends marshalling 4-8 KB; past that the engine
// earns its wake by running while the sender copies its next frame and by
// taking a window of frames in one pass. Measured on a 2-vCPU host, parent
// → this rule: pingpong_mem (64 B) op_p50_us 3.13-3.43 → 2.52-2.71 over
// ten pairs; and BenchmarkScaleMesh/sharded at -cpu 2, two lanes (8 KB and
// 32 KB windowed classes on two Ps) 54.3-56.9 → 52.4-55.1 µs/op over four
// rounds, in which a limit of 8 KB (the 8 KB class inline too) read
// 56.0-59.2.
//
// Lock order. The channel table (Proc.channels, a sync.Map) takes no lock to
// read: routeFrame and every send resolve a channel with a load. Its writers
// (addChannel, finalizeChannel) hold its internal lock for one store, never
// across a lane.mu, so it may be used under a lane.mu and no lane.mu is ever
// awaited under it. Under lane.mu, Post and ring operations never block; the
// one thing that can is the carrier's Send (flushRunLocked), and what is
// sound there depends on the carrier:
//
//   - A carrier that delivers in the sender's goroutine and never blocks
//     (Mem; SimMesh under virtual time is single-goroutine anyway). Send
//     returns without waiting for anybody, so a scheduler-domain thread
//     waiting on lane.mu always makes progress. But lanes nest: the
//     receiver's inline pass runs under the sender's lane.mu (flushRunLocked
//     → Send → routeFrame), and a credit or ack it sends straight back
//     re-enters the sender's routeFrame with that lock held up-stack. Hence:
//     while holding one lane's mu, a second lane's mu may be TryLocked, never
//     Locked. passInline is the only such acquisition, and a failed TryLock
//     sends the frame down the engine path. (addChannel Locks a lane to
//     register a default channel on first contact; what a pass sends back is
//     for channels the peer already holds, so the nested routeFrame only
//     looks channels up.)
//   - A carrier whose Send can block on the peer and whose frames arrive on
//     the goroutine that relieves that backpressure (real TCP: Send executes
//     no write — it queues the frame for the connection's writer goroutine —
//     but at the connection's high-water mark it waits for that writer, and
//     the writer, blocked on a full socket, for the peer's reader). It says
//     so once (transport.ReaderDelivery → Proc.readerDelivers), and a lane.mu
//     may then be held across that queue-full wait because the goroutines it
//     waits for never wait back: the writer takes no lock but its own
//     connection's, and a reader-delivered frame is decoded, its channel
//     looked up (no lock) and the item pushed onto the lane's ring for
//     the engine — no inline pass, which would end in serviceLocked → Send on
//     the reader (a credit reopening a window of gated bulk sends), and no
//     first-contact addChannel, which Locks a lane: an item for a default
//     channel nobody has opened yet travels with c == nil and the engine
//     registers the channel before it takes its own lock
//     (adoptFirstContact). Four procs in a ring on two lanes, each sending
//     more than the sockets hold before it receives, is the case that
//     deadlocks otherwise: every sender waiting at the mark, holding the
//     lane its reader is queued on. Giving up the inline pass cost about
//     0.5 µs of a 25 µs rpc_tcp round trip (measured, four pairs, when sends
//     still wrote inline); a receive-only inline pass would win it back and
//     is not built.
//
// Everything else that takes lane.mu — engines, timers, the drain, sending
// threads — may wait for it, and behind a blocking carrier waits at most for
// the peer's reader.
//
// Lane count defaults to min(GOMAXPROCS, 4). A resolved count of one builds
// the single lane under the thread driver, which is the paper-faithful
// baseline the benches A/B against.

// inlinePassMax is the largest payload whose arrival the delivering
// goroutine may process itself (see "Who runs a pass" above).
const inlinePassMax = 4 << 10

// rxItem is one arriving message routed to a lane: the decoded frame plus
// its channel, resolved in the *sender's* goroutine so the engine never
// touches the channel table.
type rxItem struct {
	m *transport.Message
	c *Channel // nil for signaling and unknown-channel traffic
}

// level files an arriving item in a lane's receive queue: control above all
// data, data under its channel's priority.
func (it rxItem) level() int {
	if it.m.Tag >= 0 && it.c != nil {
		return it.c.priority
	}
	return ctrlLevel
}

// lane is one send/recv engine shard.
type lane struct {
	p   *Proc
	idx int

	// rx is the MPSC hand-off ring: transports (any goroutine) push, the
	// engine drains; a deliverer that finds the engine asleep may consume
	// its own frame instead (passInline). nil under the thread driver, whose
	// arrivals reach the scheduler domain through the carrier's Handler and
	// go straight to rxq.
	rx *ring.MPSC[rxItem]

	// mu guards everything below it, plus all state of every channel
	// pinned to this lane (discipline windows, piggyback words, flush
	// flags).
	mu sync.Mutex

	// pending is the lane's send scheduler — control strictly first, then
	// the data channels by strict priority, round robin within a level (see
	// sched.go); rxq is its receive priority queue.
	pending laneSched
	rxq     prioQueue[rxItem]

	// chans lists every channel served by this lane.
	chans []*Channel

	// flushQ is the lane's flush wheel: channels whose piggyback window is
	// running, in deadline order (the delay is constant), covered by one
	// armed timer (wheelOn) for the head deadline.
	flushQ  list.FIFO[*Channel]
	wheelOn bool
	wheelFn func()

	// Adaptive-scheduler counters (under mu; LaneStats snapshots them).
	// inlinePasses doubles as the count of ring items consumed by their own
	// deliverer, which the ring never saw, and ringDrained counts every item
	// a pass ingested: Lifecycle's ring ledger.
	ctrlPiggyL      int64
	ctrlStandaloneL int64
	enginePasses    int64
	inlinePasses    int64
	ringDrained     int64

	// inlineItem is the one-frame batch of an inline pass; it belongs to the
	// ring's consumer.
	inlineItem [1]rxItem

	// Per-lane freelists recycle the per-call bookkeeping structs of the
	// send hot path, so lanes never contend on recycling. dataFree holds
	// sender-side data Message structs: every carrier serializes before Send
	// returns and go-back-N buffers private copies, so once flushRunLocked
	// has handed a data frame to the endpoint nothing references the struct
	// and it can carry the next Send.
	reqFree  []*sendReq
	ctrlFree []*transport.Message
	dataFree []*transport.Message

	// Burst scratch of a service pass: the same-destination run under
	// accumulation and the message vector handed to a transport.BatchSender.
	sendRun   []*sendReq
	batchMsgs []*transport.Message
	rxScratch []rxItem

	// Out-queues: work that must complete in the scheduler domain.
	// Appended under mu, swapped out whole by a drain. drainPosted collapses
	// redundant Post calls into one pending drain: queueDrainLocked sets it,
	// a drain's swap clears it, so it is set only while work is queued.
	wake        []*mts.Thread
	fans        []*Thread
	deliver     []*transport.Message
	drainPosted bool

	// Spare swap buffers (scheduler-domain only, see runDrain).
	spareWake    []*mts.Thread
	spareFans    []*Thread
	spareDeliver []*transport.Message

	drainFn   func()
	traceName string

	// Virtual-mode driver state (nil vd in real mode, where ring.Push wakes
	// the engine goroutine directly): stepArmed collapses redundant kicks
	// into one pending step event on the shared clock.
	vd        *virtualDriver
	stepFn    func()
	stepArmed atomic.Bool

	// td is the thread driver when it runs this lane (nil otherwise).
	td *threadDriver
}

// ---------------------------------------------------------------------------
// Engine drivers
//
// engineDriver is the seam between a lane's protocol logic and its execution
// vehicle. The goroutine driver runs each lane engine as a goroutine that
// sleeps on its MPSC ring; the virtual driver runs the same engine body as
// event callbacks scheduled on the discrete-event loop's vclock heap, so a
// whole mesh of procs shares one deterministic clock; the thread driver runs
// one lane from the paper's two mts system threads. New picks: goroutine or
// virtual (Runtime.Virtual) when more than one lane is resolved, the
// carrier is a transport.FrameCarrier and no hook in Config assumes the
// protocol runs on a scheduler thread (RecvCharge, ArrivalPollDelay); the
// thread driver otherwise. The per-lane kick() is the hot-path half of the
// seam: producers call it after every ring push, and it compiles down to a
// single nil check in real mode.

type engineDriver interface {
	// start launches (goroutine: from laneLoop, on the runtime's first
	// dispatch) or wires (virtual, thread: while New builds the proc) one
	// lane's engine.
	start(ln *lane)
	// stop tears the engines down at shutdown; runs in the scheduler domain.
	stop(p *Proc)
	// post defers fn into the scheduler domain from a context that may hold a
	// lane lock or run on a foreign goroutine.
	post(p *Proc, fn func())
}

// goroutineDriver is one engine goroutine per lane, woken by ring pushes,
// stopped through laneStop.
type goroutineDriver struct{}

func (goroutineDriver) start(ln *lane) {
	ln.p.laneWG.Add(1)
	go ln.engine()
}

func (goroutineDriver) stop(p *Proc) {
	close(p.laneStop)
	p.laneWG.Wait()
}

// post is Runtime.Post: fn runs between dispatches.
func (goroutineDriver) post(p *Proc, fn func()) { p.cfg.RT.Post(fn) }

// virtualDriver runs lane engines as events on the runtime's clock: a kick
// schedules one zero-delay step on the vclock heap, and the step body runs
// in the simulation engine's single goroutine. No lane goroutines exist, so
// every lane mutex is uncontended and execution order is fully determined
// by the event queue's (time, seq) order — the determinism contract of
// core.NewVirtualMesh. Its events ride Proc.after, so Leaks counts them.
type virtualDriver struct{}

func (d *virtualDriver) start(ln *lane) {
	ln.vd = d
	ln.stepFn = ln.step
}

func (d *virtualDriver) stop(p *Proc) {
	// Nothing to join: no goroutines were started, and a stale armed step
	// firing after shutdown finds empty queues and does nothing.
}

// post is a zero-delay clock event: nothing ever drains the Post queue
// under a virtual-time loop — the sim engine only Dispatches.
func (d *virtualDriver) post(p *Proc, fn func()) { p.after(0, fn) }

// threadDriver is the paper's own execution vehicle (§4, Figure 8): one send
// and one receive system thread at top priority, over a single lane. It is
// what the classic engine survives as — a third way to execute the lane
// code, not a second copy of the protocol — and it keeps that engine's
// thread-switch sequence: a sender enqueues, wakes the send thread and parks;
// the send thread hands *itself* to the carrier, so a cost-model carrier
// (SimTCP, SimATM) charges and parks the thread the paper says does the
// transfer, and unblocks each sender as soon as its run is on the wire;
// arrivals reach the scheduler domain through the carrier's Handler and the
// receive thread demultiplexes them, charging Config.RecvCharge to itself.
// Everything runs in the scheduler domain, so lane.mu is uncontended; it is
// still taken (stats readers are foreign goroutines) but never held across a
// Park.
type threadDriver struct {
	ln         *lane
	send, recv *mts.Thread
	// down is set by the first system thread to find that the process may
	// terminate, and is final: the sibling leaves at its next idle point
	// without asking again, and later arrivals are dropped. Re-evaluating was
	// a hang — a frame arriving between the two exits (a retransmission whose
	// ack was lost) sat in rxq with the receive thread gone, and the send
	// thread parked for good on a predicate that could never turn true again.
	// For the peer it is the arrival-after-exit it already has to survive.
	down bool
}

func (d *threadDriver) start(ln *lane) {
	p := ln.p
	d.ln, ln.td = ln, d
	p.cfg.Endpoint.SetHandler(d.deliver)
	d.send = p.cfg.RT.Create(fmt.Sprintf("ncs%d-send", p.cfg.ID), mts.PrioSystem, d.sendLoop)
	d.recv = p.cfg.RT.Create(fmt.Sprintf("ncs%d-recv", p.cfg.ID), mts.PrioSystem, d.recvLoop)
}

func (d *threadDriver) stop(p *Proc) {
	// The system threads return on their own (idle).
}

// post runs fn on the spot: the thread driver never leaves the scheduler
// domain, so there is nowhere to defer to. Its callers allow that — addChannel
// has released the lane lock, and this driver's shutdownFn (wake) takes none.
func (d *threadDriver) post(p *Proc, fn func()) { fn() }

// wake is the thread driver's shutdownFn: both system threads re-evaluate the
// shutdown predicate themselves at their idle points, outside the lane lock,
// so a caller that holds it only has to get them there.
func (d *threadDriver) wake() {
	p := d.ln.p
	p.wakeIfIdle(d.send, "send idle")
	p.wakeIfIdle(d.recv, "recv idle")
}

// idle is a system thread's idle point: it parks the thread until somebody
// has work for it, or reports that the process may terminate — and then wakes
// the sibling, whose own queue may have been what held the predicate back.
func (d *threadDriver) idle(t *mts.Thread, name, reason string) (exit bool) {
	p := d.ln.p
	if d.down || p.mayShutdown() {
		d.down = true
		p.traceSysClose(name)
		d.wake()
		return true
	}
	p.traceSys(name, trace.Idle)
	t.Park(reason)
	return false
}

// sendLoop is the send system thread (Figure 8's "S"): park at "send idle"
// until the lane has something to service, then run the pass.
func (d *threadDriver) sendLoop(st *mts.Thread) {
	ln := d.ln
	for {
		ln.mu.Lock()
		if ln.pending.empty() {
			ln.mu.Unlock()
			if d.idle(st, "send", "send idle") {
				return
			}
			continue
		}
		ln.p.traceSys("send", trace.Comm)
		ln.serviceLocked()
		ln.mu.Unlock()
		ln.drain(st)
	}
}

// deliver is the transport handler: it queues the message for the receive
// system thread and wakes it (Figure 8's "R").
func (d *threadDriver) deliver(m *transport.Message) {
	ln, p := d.ln, d.ln.p
	if d.down {
		m.Release()
		return
	}
	it := rxItem{m: m}
	if chanAddressed(m.Tag) {
		it.c = p.frameChannel(m.From, m.Channel)
	}
	ln.mu.Lock()
	ln.rxq.push(it.level(), it)
	ln.mu.Unlock()
	if p.cfg.ArrivalPollDelay != nil {
		if delay := p.cfg.ArrivalPollDelay(); delay > 0 {
			// Poll-discovered arrival: wake the receive thread when the
			// underlying p4 poll would notice it. An earlier wake (a
			// later arrival during compute, or a natural switch) finds
			// this message too — polls inspect the whole queue.
			p.after(delay, func() { p.wakeIfIdle(d.recv, "recv idle") })
			return
		}
	}
	p.wakeIfIdle(d.recv, "recv idle")
}

// recvLoop is the receive system thread: park at "recv idle", demultiplex
// everything queued, and complete the deliveries in its own context — the
// drain charges Config.RecvCharge (the stack-to-application copy) to this
// thread before it wakes the receiver, with the lane lock released.
func (d *threadDriver) recvLoop(rt *mts.Thread) {
	ln := d.ln
	for {
		ln.mu.Lock()
		if ln.rxq.empty() {
			ln.mu.Unlock()
			if d.idle(rt, "recv", "recv idle") {
				return
			}
			continue
		}
		ln.p.traceSys("recv", trace.Comm)
		ln.processLocked()
		ln.service()
		ln.mu.Unlock()
		ln.drain(rt)
	}
}

// kick notifies the lane's driver that work entered the rx ring. Real mode
// needs nothing — ring.Push already wakes the sleeping engine goroutine —
// so this is one predictable branch on the hot path.
func (ln *lane) kick() {
	if ln.vd != nil && ln.stepArmed.CompareAndSwap(false, true) {
		ln.p.after(0, ln.stepFn)
	}
}

// ---------------------------------------------------------------------------
// Lane-local freelists (callers hold ln.mu). A request or message returns to
// the freelist of the lane that retires it, once it has transmitted or
// failed.

func (ln *lane) getReq() *sendReq {
	if n := len(ln.reqFree); n > 0 {
		req := ln.reqFree[n-1]
		ln.reqFree = ln.reqFree[:n-1]
		return req
	}
	return &sendReq{}
}

func (ln *lane) putReq(req *sendReq) {
	*req = sendReq{}
	ln.reqFree = append(ln.reqFree, req)
}

// getCtrlMsg draws a control message from the freelist; its Data buffer is
// reset to zero length but keeps its backing array, so a steady stream of
// credits/acks allocates nothing.
func (ln *lane) getCtrlMsg() *transport.Message {
	if n := len(ln.ctrlFree); n > 0 {
		m := ln.ctrlFree[n-1]
		ln.ctrlFree = ln.ctrlFree[:n-1]
		return m
	}
	return &transport.Message{Data: make([]byte, 0, 8)}
}

func (ln *lane) putCtrlMsg(m *transport.Message) {
	data := m.Data[:0]
	*m = transport.Message{Data: data}
	ln.ctrlFree = append(ln.ctrlFree, m)
}

// getDataMsg draws a sender-side data message from the freelist. Unlike
// control messages its Data field aliases the caller's payload, so put
// clears it entirely (pinning nothing between sends).
func (ln *lane) getDataMsg() *transport.Message {
	if n := len(ln.dataFree); n > 0 {
		m := ln.dataFree[n-1]
		ln.dataFree = ln.dataFree[:n-1]
		return m
	}
	return &transport.Message{}
}

func (ln *lane) putDataMsg(m *transport.Message) {
	*m = transport.Message{}
	ln.dataFree = append(ln.dataFree, m)
}

// pushCtrlLocked queues one pooled control frame (tag < 0) toward a peer on
// the lane's control level: head, if any, then words as uint32s. The message
// and its payload buffer recycle once the endpoint has serialized them. Flow-
// and error-control payloads are *cumulative* counters (credit
// advertisements, acks) compared wrap-safely with wire.SeqNewer at the
// receiver, so those control frames survive lossy carriers: any later frame
// supersedes a dropped one. The caller has the lane serviced afterwards.
func (ln *lane) pushCtrlLocked(to ProcID, ch ChannelID, tag int, head []byte, words ...uint32) {
	m := ln.getCtrlMsg()
	m.From = ln.p.cfg.ID
	m.To = to
	m.Channel = ch
	m.Tag = tag
	m.Data = append(m.Data, head...)
	for _, w := range words {
		m.Data = wire.AppendUint32(m.Data, w)
	}
	req := ln.getReq()
	req.m = m
	req.ctrl = true
	ln.pending.push(req)
}

// ---------------------------------------------------------------------------
// Proc-side setup

// Lanes returns the number of active send/recv lanes (1 under the thread
// driver).
func (p *Proc) Lanes() int { return len(p.lanes) }

// LaneStats is one lane's scheduler snapshot.
type LaneStats struct {
	// Lane is the lane index and Channels how many channels it serves.
	Lane     int
	Channels int
	// CtrlPiggybacked / CtrlStandalone count control words that rode data
	// frames vs standalone control frames sent by this lane's channels.
	// PiggyShare is piggybacked/(piggybacked+standalone).
	CtrlPiggybacked int64
	CtrlStandalone  int64
	PiggyShare      float64
	// DRRRounds, CtrlCoalesced (here and in ChannelStats), MigratedOut and
	// Steals are always zero: the send scheduler is a strict priority pop
	// with no rounds, a control word rides only its own channel's frames and
	// lane placement is static. The fields stay only because bench/ncs.go
	// reads them, and leave with core.drr_rounds_per_msg,
	// core.ctrl_coalesced_share, core.migrations and core.steals in the next
	// benchmark change.
	DRRRounds     int64
	CtrlCoalesced int64
	MigratedOut   int64
	Steals        int64
	// EnginePasses / InlinePasses count the lane's engine passes by who ran
	// them: the lane's own engine (goroutine, or virtual-mode step), or a
	// delivering goroutine that found the engine asleep and the lane free.
	EnginePasses int64
	InlinePasses int64
}

// LaneStats returns a per-lane scheduler snapshot (one entry under the thread
// driver). Safe to call while traffic is flowing.
func (p *Proc) LaneStats() []LaneStats {
	out := make([]LaneStats, len(p.lanes))
	for i, ln := range p.lanes {
		ln.mu.Lock()
		st := LaneStats{
			Lane:            i,
			Channels:        len(ln.chans),
			CtrlPiggybacked: ln.ctrlPiggyL,
			CtrlStandalone:  ln.ctrlStandaloneL,
			EnginePasses:    ln.enginePasses,
			InlinePasses:    ln.inlinePasses,
		}
		ln.mu.Unlock()
		if t := st.CtrlPiggybacked + st.CtrlStandalone; t > 0 {
			st.PiggyShare = float64(st.CtrlPiggybacked) / float64(t)
		}
		out[i] = st
	}
	return out
}

// laneIndex picks the lane for a channel: an explicit ChannelConfig.Lane
// pins it (1-based, wrapped), otherwise the peer hash spreads channels so
// traffic to different peers lands on different lanes.
func (p *Proc) laneIndex(peer ProcID, hint int) int {
	if hint > 0 {
		return (hint - 1) % len(p.lanes)
	}
	return int(uint32(peer)) % len(p.lanes)
}

// buildLanes allocates the proc's n lanes, without an execution vehicle yet.
func (p *Proc) buildLanes(n int) {
	p.laneBS, _ = p.cfg.Endpoint.(transport.BatchSender)
	p.lanes = make([]*lane, n)
	for i := range p.lanes {
		ln := &lane{p: p, idx: i}
		ln.drainFn = ln.runDrain
		ln.wheelFn = ln.wheelFire
		if p.cfg.Tracer != nil {
			ln.traceName = fmt.Sprintf("%s/lane%d", p.cfg.TraceName, i)
		}
		p.lanes[i] = ln
	}
}

// initThreadLane builds the single lane the two system threads execute:
// whatever SendLanes/RecvLanes say, no ring and no lane goroutine.
func (p *Proc) initThreadLane() {
	p.buildLanes(1)
	d := &threadDriver{}
	p.laneDriver = d
	p.shutdownFn = d.wake
	d.start(p.lanes[0])
}

// initLanes builds n ring-fed lane engines; called from New when the resolved
// lane count exceeds one and the endpoint can deliver raw frames.
func (p *Proc) initLanes(n int, fc transport.FrameCarrier) {
	p.buildLanes(n)
	p.laneStop = make(chan struct{})
	for _, ln := range p.lanes {
		ln.rx = ring.New[rxItem]()
	}
	p.shutdownFn = func() {
		if p.mayShutdown() {
			p.wakeIfIdle(p.laneThread, "lanes idle")
		}
	}
	if rd, ok := fc.(transport.ReaderDelivery); ok {
		p.readerDelivers = rd.DeliversFromReader()
	}
	fc.SetFrameHandler(p.routeFrame)
	p.laneThread = p.cfg.RT.Create(fmt.Sprintf("ncs%d-lanes", p.cfg.ID), mts.PrioSystem, p.laneLoop)
	if p.cfg.RT.Virtual() {
		// A step event has to be wired before the first frame can arrive.
		p.laneDriver = &virtualDriver{}
		p.startEngines()
	} else {
		// Goroutines can wait until the runtime first runs the lanes'
		// supervisor (laneLoop): building a proc then spawns nothing, and a
		// frame that arrives earlier sits in its ring — the engine drains
		// before it first sleeps.
		p.laneDriver = goroutineDriver{}
	}
}

func (p *Proc) startEngines() {
	for _, ln := range p.lanes {
		p.laneDriver.start(ln)
	}
}

// chanAddressed reports whether a frame with this tag belongs to a channel:
// everything but signaling, which is proc-level.
func chanAddressed(tag int) bool { return !isSigTag(tag) }

// frameChannel resolves a channel for an arriving frame in the deliverer's
// goroutine. A default channel is created on first reference — unless the
// deliverer is a carrier's reader, which may not take the lane lock that
// registration needs (see "Lock order"): it only looks the table up, and a
// channel-0 item it leaves unresolved is the engine's (adoptFirstContact).
func (p *Proc) frameChannel(peer ProcID, id ChannelID) *Channel {
	c := p.openChannel(peer, id)
	if c == nil && id == 0 && !p.readerDelivers {
		c = p.DefaultChannel(peer)
	}
	return c
}

// routeFrame is the transport's frame handler: it decodes the frame and
// resolves its channel in the *calling* goroutine (a peer's lane engine or
// scheduler thread, a socket reader), then hands the message to
// the owning lane's ring — or, for a short frame whose lane engine is asleep
// and whose deliverer may, runs the engine's pass on it right here
// (passInline).
//
// A frame that does not decode is a bug in the carrier: one that reads
// untrusted bytes validates them before it calls (transport.FrameCarrier).
func (p *Proc) routeFrame(fb *wire.Buf) {
	m, err := wire.UnmarshalPooled(fb)
	if err != nil {
		panic("core: carrier delivered a frame that fails to decode: " + err.Error())
	}
	it := rxItem{m: m}
	if chanAddressed(m.Tag) {
		it.c = p.frameChannel(m.From, m.Channel)
	}
	ln := p.lanes[p.laneIndex(m.From, 0)]
	if it.c != nil {
		ln = it.c.ln
	}
	if ln.vd != nil || p.readerDelivers || len(m.Data) > inlinePassMax {
		ln.rx.Push(it)
		ln.kick()
	} else if ln.rx.ClaimOrPush(it) {
		ln.passInline(it)
	}
}

// adoptFirstContact finishes what a reader's routeFrame may not do: an item
// on channel 0 without a channel is a peer's first word on a default channel
// nobody here has opened, pushed to the lane that channel will hash to. The
// engine creates the channel before it takes its own lock (addChannel locks
// the channel's lane to register it).
func (p *Proc) adoptFirstContact(items []rxItem) {
	for i := range items {
		it := &items[i]
		if it.c == nil && it.m.Channel == 0 && chanAddressed(it.m.Tag) {
			it.c = p.DefaultChannel(it.m.From)
		}
	}
}

// ---------------------------------------------------------------------------
// Engine

// ingestLocked is the one engine pass body, run under ln.mu by whoever holds
// the ring's consumer role: queue a drained batch by priority, process the
// arrivals, then service the send queue the processing may have fed (credits
// and acks reopening gated channels, retransmissions). It reports whether the
// out-queues need a drain scheduled.
func (ln *lane) ingestLocked(items []rxItem) bool {
	ln.ringDrained += int64(len(items))
	for i := range items {
		it := items[i]
		items[i] = rxItem{}
		ln.rxq.push(it.level(), it)
	}
	ln.processLocked()
	ln.serviceLocked()
	return ln.queueDrainLocked()
}

// pass runs one engine pass over a batch and hands its scheduler-domain
// completions over. The caller is the ring's consumer and holds ln.mu, which
// pass releases. The two ring-fed drivers differ only in how that hand-over
// is scheduled: real mode posts the drain to the proc's runtime; virtual mode
// already runs in the scheduler domain (the simulation engine's goroutine,
// which never services Post) and drains inline. (The thread driver runs
// no pass: its system threads call processLocked and serviceLocked apart.)
func (ln *lane) pass(items []rxItem) {
	if tr := ln.p.cfg.Tracer; tr != nil {
		tr.Set(ln.traceName, trace.Comm)
		tr.Mark(ln.traceName, fmt.Sprintf("q=%d", len(items)))
	}
	post := ln.ingestLocked(items)
	ln.mu.Unlock()
	if post {
		if ln.vd != nil {
			ln.runDrain()
		} else {
			ln.p.cfg.RT.Post(ln.drainFn)
		}
	}
	// During shutdown the keeper thread parks until every lane is quiescent;
	// a frame the pass just consumed (the peer's last ack or credit) may have
	// been the very thing it was waiting out, so re-run the shutdown check in
	// the scheduler domain (virtual mode does it once per step, directly).
	if ln.vd == nil && ln.p.closing.Load() {
		ln.p.cfg.RT.Post(ln.p.shutdownFn)
	}
}

// engine is the lane's goroutine and the home of its ring's consumer role:
// drain the ring, run a pass, sleep when the ring is empty.
func (ln *lane) engine() {
	defer ln.p.laneWG.Done()
	tr := ln.p.cfg.Tracer
	for {
		items := ln.rx.Drain()
		if len(items) == 0 {
			if tr != nil {
				tr.Set(ln.traceName, trace.Idle)
			}
			if !ln.rx.Sleep(ln.p.laneStop) {
				if tr != nil {
					tr.Close(ln.traceName)
				}
				return
			}
			continue
		}
		if ln.p.readerDelivers {
			ln.p.adoptFirstContact(items)
		}
		ln.mu.Lock()
		ln.enginePasses++
		ln.pass(items)
	}
}

// passInline is the delivering goroutine's turn as the ring's consumer
// (routeFrame's claim was granted): the pass the engine would have been
// woken for, over the one frame in hand, without the wake. The goroutine may
// hold another lane's lock up-stack, so it only TryLocks this one; if that
// fails the frame goes into the ring and Release wakes the engine for it.
func (ln *lane) passInline(it rxItem) {
	if ln.mu.TryLock() {
		ln.inlinePasses++
		ln.inlineItem[0] = it
		ln.pass(ln.inlineItem[:])
		if tr := ln.p.cfg.Tracer; tr != nil {
			tr.Set(ln.traceName, trace.Idle)
		}
	} else {
		ln.rx.Push(it)
	}
	ln.rx.Release()
}

// step is the virtual-mode engine: one event callback doing what one wakeup
// of the engine goroutine does, repeated until the ring is empty. It runs in
// the simulation engine's goroutine (scheduler domain) at a definite virtual
// instant, so the closing-time shutdown re-check calls the predicate
// directly.
func (ln *lane) step() {
	ln.stepArmed.Store(false)
	worked := false
	for {
		items := ln.rx.Drain()
		if len(items) == 0 {
			break
		}
		worked = true
		ln.mu.Lock()
		ln.enginePasses++
		ln.pass(items)
	}
	if !worked {
		return
	}
	if tr := ln.p.cfg.Tracer; tr != nil {
		tr.Set(ln.traceName, trace.Idle)
	}
	if ln.p.closing.Load() {
		ln.p.shutdownFn()
	}
}

// queueDrainLocked marks a drain as needed if the out-queues are non-empty;
// the caller Posts drainFn exactly when it returns true.
func (ln *lane) queueDrainLocked() bool {
	if ln.drainPosted || !ln.outQueuedLocked() {
		return false
	}
	ln.drainPosted = true
	return true
}

// outQueuedLocked reports whether the out-queues hold scheduler-domain work.
func (ln *lane) outQueuedLocked() bool {
	return len(ln.wake) != 0 || len(ln.fans) != 0 || len(ln.deliver) != 0
}

// processLocked is the receive protocol body: demultiplex everything queued
// in rxq, higher-priority channels first — control to the disciplines, data
// through error/flow control — deferring scheduler-domain work (waiter
// dispatch, signaling) to the out-queues. Control payloads are read on the
// spot, so a pooled frame recycles immediately — steady credit/ack streams
// allocate no rx buffers. A peer frame this end cannot use — a control tag
// it does not know, data on a channel that is not open here — is counted
// (LifecycleStats.BadControl, StrayData) and dropped: peer input never
// becomes an error.
func (ln *lane) processLocked() {
	for !ln.rxq.empty() {
		it := ln.rxq.pop()
		m, c := it.m, it.c
		if m.Tag < 0 {
			switch m.Tag {
			case tagFlowAck, tagGBNAck:
				if c == nil {
					// Control for a channel nobody has open: almost always
					// an ack or credit racing the channel's finalize (the
					// signaled close removed it from the table). Cumulative
					// control is supersede-safe, so drop it and count.
					ln.p.statLateCtrl.Add(1)
					m.Release()
					continue
				}
				if m.Tag == tagFlowAck {
					c.flow.onControl(m)
				} else {
					c.errc.onControl(m)
				}
				m.Release()
			case tagSigSetup, tagSigConnect, tagSigReject, tagSigRelease, tagSigRelComp, tagSigBeat:
				// Signaling is proc-level scheduler-domain state: the drain
				// dispatches to onSigMsg.
				ln.deliver = append(ln.deliver, m)
			default:
				ln.p.statBadControl.Add(1)
				m.Release()
			}
			continue
		}
		if c == nil {
			ln.p.statStrayData.Add(1)
			m.Release()
			continue
		}
		// Piggybacked control applies before anything else: it is the peer's
		// receiver-role state and stays valid whether this data copy turns
		// out fresh, duplicate, or addressed to a closed channel (standalone
		// control on closed channels is consumed too, and both words are
		// supersede-safe).
		if m.HasCredit {
			c.flow.onCredit(m.Credit)
		}
		if m.HasAck {
			c.errc.onAck(m.Ack)
		}
		if c.Closed() {
			// This end tore the channel down; without teardown signaling the
			// peer may still be transmitting (or a retransmission crossed the
			// close). Drop, and let its error control give up as against a
			// dead process.
			ln.p.statStrayData.Add(1)
			m.Release()
			continue
		}
		if !c.errc.onData(m) {
			continue
		}
		c.received++
		c.bytesReceived += int64(len(m.Data))
		c.flow.onDelivered(m)
		ln.deliver = append(ln.deliver, m)
	}
}

// requeueRxLocked re-queues the run a go-back-N receiver held past a hole
// ahead of anything already waiting at the channel's level, so release
// order equals sequence order.
func (ln *lane) requeueRxLocked(c *Channel, flushed []*transport.Message) {
	items := ln.rxScratch[:0]
	for _, m := range flushed {
		items = append(items, rxItem{m: m, c: c})
	}
	ln.rxq.prependLevel(c.priority, items)
	ln.rxScratch = items[:0]
}

// ---------------------------------------------------------------------------
// Sending

// service has the lane's send queue serviced from a context that just fed
// it (a sending thread, a timer, the receive side, channel teardown; caller
// holds ln.mu). Under the goroutine and virtual drivers that is a pass right
// here, inline — an uncontended send completes with no context switch at
// all. Under the thread driver the pass belongs to the send system thread,
// which parks inside the carrier: if anything is queued, wake it if it is at
// its idle point; parked mid-transfer it finds the queue when it loops, and a
// targeted wake there would corrupt whatever it is blocked on.
func (ln *lane) service() {
	if ln.td == nil {
		ln.serviceLocked()
	} else if !ln.pending.empty() {
		ln.p.wakeIfIdle(ln.td.send, "send idle")
	}
}

// leave ends a scheduler-domain entry into the lane (a thread's, a timer's,
// channel teardown's; caller holds ln.mu): whatever the entry queued is
// serviced, the lock released, and the completions that are due run here, in
// the caller's context.
func (ln *lane) leave() {
	ln.service()
	ln.mu.Unlock()
	ln.runDrain()
}

// serviceLocked is the send protocol body, one pass: drain what the lane's
// send scheduler lets leave (control first, then by priority across the
// channels whose heads flow and error control admit) through piggyback
// attachment and same-destination batching — requests accumulate into
// same-destination runs that go to the carrier through transport.BatchSender
// in one call when it offers batching, so per-message carrier costs (locks,
// wakeups, syscalls) amortize across the burst. A gated head never blocks
// the pass: its channel simply sits out until a discipline reopens it.
func (ln *lane) serviceLocked() {
	p := ln.p
	run := ln.sendRun[:0]
	for {
		req := ln.pending.pop()
		if req == nil {
			break
		}
		// Reverse-direction control rides along: a departing data frame
		// (first transmission or retransmission alike) picks up its
		// channel's pending credit advertisement and ack.
		if req.ch != nil {
			req.ch.attachPiggy(req.m)
		}
		if len(run) > 0 && (req.m.To != run[len(run)-1].m.To || len(run) >= maxSendBurst) {
			run = ln.flushRunLocked(run)
		}
		run = append(run, req)
		if p.laneBS == nil {
			run = ln.flushRunLocked(run)
		}
	}
	ln.sendRun = ln.flushRunLocked(run)
}

// ---------------------------------------------------------------------------
// Flush wheel

// armWheelLocked schedules the lane's flush wheel for its head deadline.
// Entries enter with a constant delay, so the queue is in deadline order
// and one armed timer covers every waiting channel on the lane.
func (ln *lane) armWheelLocked() {
	if ln.wheelOn || ln.flushQ.Size() == 0 {
		return
	}
	d := ln.flushQ.Peek().flushAt - time.Duration(ln.p.cfg.RT.Now())
	if d < 0 {
		d = 0
	}
	ln.wheelOn = true
	ln.p.flushTimers.Add(1)
	ln.p.after(d, ln.wheelFn)
}

// wheelFire is the lane flush wheel (scheduler domain, via Runtime.After):
// every channel whose piggyback window expired flushes standalone whatever
// control no data frame of its own carried while the window ran.
func (ln *lane) wheelFire() {
	ln.p.flushTimers.Add(-1)
	ln.mu.Lock()
	ln.wheelOn = false
	now := time.Duration(ln.p.cfg.RT.Now())
	for ln.flushQ.Size() > 0 && ln.flushQ.Peek().flushAt <= now {
		c := ln.flushQ.Pop()
		c.flushOn = false
		if !c.Closed() {
			c.flushCtrl()
		}
	}
	ln.armWheelLocked()
	ln.leave()
}

// maxSendBurst bounds one same-destination run handed to a carrier's
// batch path, so a saturating bulk stream cannot delay its own callers'
// wakeups (or a priority preemption point) indefinitely.
const maxSendBurst = 64

// flushRunLocked hands one same-destination run to the carrier — a single
// SendBatch call when it offers batching — then completes the requests:
// channel counters, wakeups, freelist recycling. It returns the emptied run
// slice for reuse. Under the thread driver the send system thread (the only
// caller there) hands itself to the carrier, which may charge and park it;
// the lane lock is released across that call, so senders keep enqueueing
// while a frame is on the wire.
func (ln *lane) flushRunLocked(run []*sendReq) []*sendReq {
	if len(run) == 0 {
		return run
	}
	p := ln.p
	if p.cfg.Tracer != nil {
		for _, req := range run {
			p.traceChan(req.ch, trace.Comm)
		}
	}
	var st *mts.Thread
	if ln.td != nil {
		st = ln.td.send
		ln.mu.Unlock()
	}
	if p.laneBS != nil && len(run) > 1 {
		ms := ln.batchMsgs[:0]
		for _, req := range run {
			ms = append(ms, req.m)
		}
		p.laneBS.SendBatch(st, ms)
		for i := range ms {
			ms[i] = nil
		}
		ln.batchMsgs = ms[:0]
	} else {
		for _, req := range run {
			p.cfg.Endpoint.Send(st, req.m)
		}
	}
	if st != nil {
		ln.mu.Lock()
	}
	for i, req := range run {
		if req.ch != nil && !req.raw {
			req.ch.sent++
			req.ch.bytesSent += int64(len(req.m.Data))
		}
		if p.cfg.Tracer != nil {
			p.traceChan(req.ch, trace.Idle)
		}
		if req.done != nil {
			// retireLocked's first case, in line: the uncontended send of
			// the goroutine and virtual drivers retires here, and the call
			// cost pingpong_mem another 1 % (2.79 → 2.81 µs).
			*req.done = true
			if req.ctrl {
				ln.putCtrlMsg(req.m)
			} else {
				ln.putDataMsg(req.m)
			}
			ln.putReq(req)
		} else {
			ln.retireLocked(req)
		}
		run[i] = nil
	}
	return run[:0]
}

// retireLocked ends a request's life, transmitted or failed (a channel
// closing under queued sends — failSendsLocked files the cause with the
// sending thread first): its sender's completion is
// delivered and the request and its pooled message return to the freelists
// (the endpoint serialized the message, and go-back-N buffers private
// copies for retransmission, so nothing references either anymore). How the
// completion travels is the driver's: a sender still inside laneSend on this
// lane (done) observes the flag before parking, so no wakeup is needed; under the thread driver the caller is in the scheduler
// domain, so a parked sender is unblocked on the spot — when *its* run has
// reached the carrier, not at the end of the pass (Figure 4's overlap: it
// computes while the next frame transmits); otherwise the wakeup is deferred
// to the drain.
func (ln *lane) retireLocked(req *sendReq) {
	p := ln.p
	if req.raw {
		req.ch.rawReqs-- // the retained bytes it aliased are free again
	}
	switch {
	case req.done != nil:
		*req.done = true
	case req.caller == nil:
	case ln.td != nil:
		p.cfg.RT.Unblock(req.caller.mt, false)
	default:
		ln.wake = append(ln.wake, req.caller.mt)
	}
	if req.fan != nil {
		if ln.td != nil {
			p.fanDone(req.fan)
		} else {
			ln.fans = append(ln.fans, req.fan)
		}
	}
	if req.ctrl {
		ln.putCtrlMsg(req.m)
	} else if req.m != nil {
		ln.putDataMsg(req.m)
	}
	ln.putReq(req)
}

// failSendsLocked is the close sweep: every send still queued on c — a head
// flow or error control was refusing included — fails with the channel's
// typed cause, which its thread finds in Thread.sendErr once it unblocks:
// Send returns it, a fan-out unwinds with it. Queued retransmissions stay:
// they drain the in-flight window. Caller holds ln.mu; the channel's state
// already fails new sends, so none can re-enter behind the sweep.
func (ln *lane) failSendsLocked(c *Channel) {
	for c.sq.Size() > 0 {
		req := c.sq.Pop()
		if t := req.caller; t != nil {
			t.sendErr = c.closedErr()
		} else if req.fan != nil {
			req.fan.sendErr = c.closedErr()
		}
		ln.retireLocked(req)
	}
}

// detachChanLocked strips a finalizing channel out of every lane structure
// it participates in: queued sends fail (failSendsLocked), queued
// retransmissions retire silently — no user send failed — the scheduler's
// ring forgets it, and it leaves the lane's channel list. Caller holds ln.mu;
// the channel must already be in the CLOSED state.
func (ln *lane) detachChanLocked(c *Channel) {
	ln.failSendsLocked(c)
	for c.rq.Size() > 0 {
		ln.retireLocked(c.rq.Pop())
	}
	ln.pending.removeChan(c)
	ln.removeChanLocked(c)
}

// removeChanLocked takes c off the lane's channel list (caller holds ln.mu).
func (ln *lane) removeChanLocked(c *Channel) {
	for i, x := range ln.chans {
		if x == c {
			ln.chans[i] = ln.chans[len(ln.chans)-1]
			ln.chans[len(ln.chans)-1] = nil
			ln.chans = ln.chans[:len(ln.chans)-1]
			break
		}
	}
}

// laneSend is the Thread.Send/Channel.Send body — the paper's NCS_send:
// build the message and request from the lane's freelists, enqueue, and have
// the lane serviced. If the request flushed during an inline service (the
// common, uncongested case under the goroutine and virtual drivers) the
// thread never parks — the send completes in the caller's own time slice,
// which is where the single-core speedup over a park/dispatch/park cycle
// comes from. If a discipline gated it, the thread parks and the eventual
// flush (engine or timer) wakes it through the drain. Under the thread
// driver service only wakes the send system thread, so the request is never
// done here: the caller parks per message until the send thread has put its
// run on the wire, and other threads of the process run meanwhile — the
// overlap mechanism of Figure 4. It returns sendErr's cause for a send that
// cannot start, and the close sweep's for a parked one it failed.
func (c *Channel) laneSend(t *Thread, tag, toThread int, data []byte) error {
	p := c.p
	if err := c.sendErr(); err != nil {
		return err
	}
	p.traceThread(t, trace.Idle)
	ln := c.lockLane()
	m := ln.getDataMsg()
	m.From = p.cfg.ID
	m.To = c.peer
	m.FromThread = t.idx
	m.ToThread = toThread
	m.Tag = tag
	m.Channel = c.id
	m.Data = data
	req := ln.getReq()
	req.m = m
	req.ch = c
	t.sendDone = false
	req.done = &t.sendDone
	ln.pending.push(req)
	ln.service()
	done := t.sendDone
	if !done {
		// Still queued for the send thread, or gated by a discipline:
		// completion happens under this same lock later, so clearing the flag
		// pointer and installing the parked caller here is race-free. An
		// engine may flush it before this thread reaches Park, in which case
		// the wakeup surfaces either through drain's self-wake detection
		// below or, after the park, through a Posted drain — which runs only
		// between dispatches, i.e. strictly after the park takes effect (as
		// does the send system thread).
		req.done = nil
		req.caller = t
	}
	queued := ln.outQueuedLocked()
	ln.mu.Unlock()
	// The inline service may have completed other requests (gated sends
	// whose credit arrived); finish that scheduler-domain work in this
	// thread's context. With nothing queued there is no drain
	// to run: what an engine queues after the unlock has a drain posted for
	// it (its own, or one already pending), and a posted drain runs only once
	// this thread has parked.
	if queued && ln.drain(t.mt) {
		done = true
	}
	if !done {
		t.mt.Park("ncs send")
	}
	p.traceThread(t, trace.Compute)
	if err := t.sendErr; err != nil {
		t.sendErr = nil
		return err
	}
	p.sent.Add(1)
	return nil
}

// ---------------------------------------------------------------------------
// Scheduler-domain drain

// runDrain moves the lane's deferred scheduler-domain work into the
// scheduler: deliver data to waiters/store, route signaling, wake send
// callers, retire fan requests. Runs only in the scheduler
// domain (a thread or timer inline, or Post between dispatches).
func (ln *lane) runDrain() { ln.drain(nil) }

// drain is runDrain on behalf of a running thread. It detects a self-wake: a
// thread draining inline on its own send path passes its own mts thread, and
// a wakeup addressed to it is reported through the return value instead of a
// no-op Unblock (the thread is still running — it has not parked yet — so
// Unblock would lose the wakeup and the thread would park forever). self
// carries at most one pending wakeup, because a thread has at most one
// outstanding send. And self is the thread Config.RecvCharge bills for a
// message handed to a parked receiver: that hook only exists under the thread
// driver, where the receive system thread is the one drain that ever finds a
// delivery queued (it drains right behind its own processLocked, and nobody
// else runs that), so the charge — a Park, taken with the lock released —
// lands on the thread the paper gives the stack-to-application copy to.
//
// One swap. The queues are taken whole and drainPosted is cleared in the same
// hold, so drainPosted set means work is queued: whatever lands after the swap
// — an engine pass on another goroutine, a thread's inline entry — is the next
// drain's, which the pass posts (queueDrainLocked finds the flag clear) and
// the inline entry runs itself. A drain that finds the queues empty (another
// took them first) returns.
//
// Reentrancy: processing a signaling message can send control
// (sendProcCtrl), which drains a lane inline — possibly this one. A receive
// thread parked in its charge is overtaken the same way. The spare swap buffers
// are therefore *claimed* (nil'd) while in use so a nested drain allocates
// fresh scratch instead of aliasing the batch being processed.
func (ln *lane) drain(self *mts.Thread) (selfWoken bool) {
	p := ln.p
	ln.mu.Lock()
	if !ln.outQueuedLocked() {
		ln.mu.Unlock()
		return false
	}
	wake, fans, del := ln.wake, ln.fans, ln.deliver
	ln.wake = ln.spareWake[:0]
	ln.fans = ln.spareFans[:0]
	ln.deliver = ln.spareDeliver[:0]
	ln.spareWake, ln.spareFans, ln.spareDeliver = nil, nil, nil
	ln.drainPosted = false
	ln.mu.Unlock()

	for i, m := range del {
		if m.Tag < 0 {
			p.onSigMsg(m)
			m.Release()
		} else {
			p.dispatchData(self, m)
		}
		del[i] = nil
	}
	for i, t := range wake {
		if t == self {
			selfWoken = true
		} else {
			p.cfg.RT.Unblock(t, false)
		}
		wake[i] = nil
	}
	for i, f := range fans {
		p.fanDone(f)
		fans[i] = nil
	}
	ln.spareWake = wake[:0]
	ln.spareFans = fans[:0]
	ln.spareDeliver = del[:0]
	return selfWoken
}

// ---------------------------------------------------------------------------
// Shutdown

// mayShutdown is the shutdown predicate — the system threads are free to exit:
// user threads are done, no channel's error control is awaiting
// acknowledgement, and every lane has drained its queues.
func (p *Proc) mayShutdown() bool {
	if !p.closing.Load() {
		return false
	}
	acked := true
	p.channels.Range(func(_, v any) bool {
		c := v.(*Channel)
		ln := c.lockLane()
		acked = c.errc.pending() == 0
		ln.mu.Unlock()
		return acked
	})
	if !acked {
		return false
	}
	for _, ln := range p.lanes {
		ln.mu.Lock()
		busy := !ln.pending.empty() || !ln.rxq.empty()
		ln.mu.Unlock()
		if busy || (ln.rx != nil && ln.rx.Len() > 0) {
			return false
		}
	}
	return true
}

// laneLoop is the ring-fed lanes' shutdown supervisor: a system thread that
// parks until the process may terminate, then stops the engines and performs
// the final drain. The lane engines themselves run outside the mts scheduler
// — as plain goroutines in real mode, as clock events in virtual mode — so
// somebody has to keep the runtime alive for them; the thread driver's send
// and receive threads do that for themselves.
func (p *Proc) laneLoop(st *mts.Thread) {
	if !p.cfg.RT.Virtual() {
		p.startEngines()
	}
	for !p.mayShutdown() {
		st.Park("lanes idle")
	}
	p.laneDriver.stop(p)
	// Engines may have queued completions after their last scheduled
	// drain ran (or for drains the exiting Run loop would never execute).
	for _, ln := range p.lanes {
		ln.runDrain()
	}
}
