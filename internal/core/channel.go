package core

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/list"
	"repro/internal/mts"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file is the channel layer: the paper's claim (§3–§4) that NCS
// supplies *application-specific* communication services, made concrete. A
// Channel is an open (local proc → peer proc, class) pipe carrying its own
// flow-control discipline, error-control discipline, and priority — the
// per-application QoS selection of Figure 5, where a Video-on-Demand stream
// picks rate pacing while a parallel solver next to it picks windowed,
// reliable transfer. Each channel rides its own ATM virtual circuit in the
// cell-level carriers (the channel ID becomes the VPI), so a rate-class
// channel's cells never share a circuit with another channel's.
//
// Thread.Send/Recv keep the paper's original single-protocol semantics by
// running on the default channel (ID 0), which every process pair has
// implicitly and which inherits the disciplines passed to core.New — the
// paper's NCS_init(flow, error) maps onto per-channel configuration with
// the process-wide arguments acting as the default channel's template.

// ChannelID identifies a channel between a process pair; 0 is the default
// channel.
type ChannelID = wire.ChannelID

// MaxChannelID bounds explicit channel IDs: the ATM carriers map the
// channel ID onto the 8-bit VPI so each channel rides a distinct VC.
const MaxChannelID = 255

// NumChannelPriorities is the number of channel priority levels. Higher
// values drain first; the default channel runs at priority 0 (lowest), and
// NCS-internal control traffic (credits, acks, retransmissions) drains
// above every data priority so windows can always open.
const NumChannelPriorities = 8

// numSendLevels is the internal queue level count: one level per channel
// priority plus the top control level.
const numSendLevels = NumChannelPriorities + 1

// ctrlLevel is the receive queue level for control traffic.
const ctrlLevel = NumChannelPriorities

// ChannelConfig selects a channel's QoS: the per-application choice the
// paper's NCS_init makes process-wide, here made per traffic class.
type ChannelConfig struct {
	// ID names the channel; both ends of a process pair must open the same
	// ID. 1..MaxChannelID (0 is the implicit default channel).
	ID ChannelID
	// Priority orders send/receive servicing across channels of this
	// process: 0..NumChannelPriorities-1, higher values drained first.
	Priority int
	// Flow is the channel's flow-control discipline (nil = NoFlowControl).
	// Instances hold per-channel state and must not be shared.
	Flow FlowControl
	// Error is the channel's error-control discipline (nil =
	// NoErrorControl). Instances hold per-channel state and must not be
	// shared.
	Error ErrorControl
	// Lane pins the channel to a specific send/recv lane: 1-based (wrapped
	// into the lane count), 0 selects the default placement — a hash of the
	// peer. Channels sharing a lane serialize against each other; channels
	// on different lanes run concurrently. Either way the placement is fixed
	// for the channel's life, so several busy channels to one peer share a
	// lane unless pinned apart. Moot on a single-lane proc.
	Lane int
}

// Channel is one open (local proc → peer proc, class) pipe with its own
// flow control, error control, priority, and counters.
type Channel struct {
	p        *Proc
	peer     ProcID
	id       ChannelID
	priority int
	flow     FlowControl
	errc     ErrorControl

	// Lifecycle (see signal.go). state is the one lifecycle value, written
	// only by sigStep (and addChannel at birth); it is atomic because lane
	// engines read it on the send and ingest paths without entering the
	// scheduler domain. Everything else below is scheduler-domain only.
	// sigRef is the call reference the channel was set up under (0 for a
	// static channel, which signaling never touches); call is the caller
	// end's setup record (nil on the callee end); attempt counts SETUPs while
	// opening and RELEASEs once open; cause is why the call failed, or what
	// this end's RELEASE carries; closeWaiters holds threads parked in
	// CloseCall.
	state        atomic.Uint32
	sigRef       uint32
	call         *sigCall
	attempt      int
	cause        CallCause
	peerThread   int
	closeWaiters []*mts.Thread
	// deadErr, set by the failure sweep when the peer is declared dead,
	// replaces the generic ChannelClosedError on every subsequent send
	// failure so callers see the cause, not just the symptom.
	deadErr *PeerDeadError

	// ln is the lane the channel runs on: set once in addChannel (the peer
	// hash, or the ChannelConfig.Lane pin) and never changed. All mutable
	// channel state below — discipline state, piggyback words, the
	// scheduler entries — is guarded by its mu.
	ln *lane

	// Pending reverse-direction control: the receiver role's credit
	// advertisement and error-control acks wait here for the channel's next
	// data frame toward the peer to piggyback on (attachPiggy) or for the
	// lane's flush wheel, whichever comes first. Both words are cumulative:
	// a newer value supersedes a queued one.
	pendCredit   uint32
	pendCreditOn bool
	pendAck      uint32
	pendAckOn    bool

	// Flush-wheel state (owning lane's lock): flushOn marks an entry in the
	// wheel, flushAt its deadline.
	flushOn bool
	flushAt time.Duration

	// Scheduler state (owning lane's lock): sq is the channel's FIFO of
	// queued sends, whose head waits there while flow or error control
	// refuses it; rq holds the error-control retransmissions, which bypass
	// that gate; inSched is membership in the lane scheduler's ring for the
	// channel's priority (see sched.go).
	sq      list.FIFO[*sendReq]
	rq      list.FIFO[*sendReq]
	inSched bool

	// rawReqs counts the error-control discipline's retransmission requests
	// between retainStore.resend and retireLocked (owning lane's lock); each
	// aliases the payload of a retained copy.
	rawReqs int

	// lane names the channel's trace timeline (empty without a Tracer).
	lane string

	// Counters (owning lane's lock): every writer — the service pass, the
	// receive pass, the piggyback and flush paths — already holds it, and so
	// does every reader (Stats, the idle-teardown tick).
	sent, received           int64
	bytesSent, bytesReceived int64
	ctrlPiggy                int64 // control words that rode data frames
	ctrlStandalone           int64 // standalone control frames sent
}

// ChannelStats is a channel's traffic snapshot.
type ChannelStats struct {
	// Sent counts data messages transmitted (first transmissions only;
	// retransmissions are reported by the error-control discipline).
	Sent int64
	// Received counts data messages delivered by the peer on this channel.
	Received int64
	// BytesSent and BytesReceived total the payload bytes of the above.
	BytesSent, BytesReceived int64
	// CtrlPiggybacked counts control words (credit advertisements, acks)
	// this end attached to reverse-direction data frames;
	// CtrlStandalone counts standalone control frames it sent instead
	// (threshold advertisements, flush-timer fallbacks, window syncs).
	// Their ratio is the piggyback protocol's effectiveness.
	CtrlPiggybacked, CtrlStandalone int64
	// CtrlCoalesced is always zero: see LaneStats.
	CtrlCoalesced int64
	// Lane is the index of the lane serving the channel, fixed at open.
	Lane int
	// Flow and Error name the channel's disciplines.
	Flow, Error string
}

// Open creates a channel to peer with its own QoS: per-channel flow
// control, error control, and priority. Both ends must open the same ID
// (with compatible disciplines) before traffic flows on it. Call before
// Start, or from a thread of this process.
func (p *Proc) Open(peer ProcID, cfg ChannelConfig) *Channel {
	if cfg.ID == 0 || cfg.ID > MaxChannelID {
		panic(fmt.Sprintf("core: channel ID must be 1..%d (0 is the default channel)", MaxChannelID))
	}
	return p.addChannel(peer, cfg.ID, chanStatic, cfg.Priority, cfg.Lane, cfg.Flow, cfg.Error)
}

// DefaultChannel returns the implicit channel 0 toward peer, creating it on
// first use from the process-wide Config.Flow/Config.Error templates.
func (p *Proc) DefaultChannel(peer ProcID) *Channel {
	if c := p.openChannel(peer, 0); c != nil {
		return c
	}
	fc := p.cfg.Flow
	if fc == nil {
		fc = NoFlowControl{}
	}
	ec := p.cfg.Error
	if ec == nil {
		ec = NoErrorControl{}
	}
	return p.addChannel(peer, 0, chanStatic, 0, 0, fc.fork(), ec.fork())
}

// addChannel builds a channel in lifecycle state st and publishes it; nil
// disciplines select none. The channel is fully initialized — lane pinned,
// disciplines init'd — *before* it enters the table: a foreign goroutine
// (routeFrame) may resolve it the instant it is visible. Two goroutines may
// race to create the same default channel; the table's writer lock decides,
// the loser's channel is discarded and the winner's returned. Explicit
// duplicate Opens still panic, and so does a peer the table cannot index.
func (p *Proc) addChannel(peer ProcID, id ChannelID, st uint32, prio, laneHint int, fc FlowControl, ec ErrorControl) *Channel {
	mustPeerInRange(peer)
	if prio < 0 || prio >= NumChannelPriorities {
		panic(fmt.Sprintf("core: channel priority must be 0..%d", NumChannelPriorities-1))
	}
	if fc == nil {
		fc = NoFlowControl{}
	}
	if ec == nil {
		ec = NoErrorControl{}
	}
	ln := p.lanes[p.laneIndex(peer, laneHint)]
	c := &Channel{p: p, peer: peer, id: id, priority: prio, flow: fc, errc: ec, ln: ln}
	c.state.Store(st)
	ln.mu.Lock()
	ln.chans = append(ln.chans, c)
	ln.mu.Unlock()
	if p.cfg.Tracer != nil {
		c.lane = fmt.Sprintf("%s/ch%d>%d", p.cfg.TraceName, id, peer)
	}
	fc.init(c)
	ec.init(c)
	if exist := p.channels.add(c); exist != nil {
		ln.mu.Lock()
		ln.removeChanLocked(c)
		ln.mu.Unlock()
		if id == 0 {
			return exist
		}
		panic(fmt.Sprintf("core(proc %d): channel %d to proc %d already open", p.cfg.ID, id, peer))
	}
	if p.closing.Load() {
		// Opened after the user threads finished (unusual, but legal from
		// an OnAccept hook): stop the flow tier's timers immediately so the
		// process can still terminate.
		ln := c.lockLane()
		fc.shutdown()
		ln.mu.Unlock()
	}
	return c
}

// openChannel returns the channel (peer, id) if it is in the table, else nil.
func (p *Proc) openChannel(peer ProcID, id ChannelID) *Channel {
	return p.channels.load(peer, id)
}

// Close tears the channel down from this end; call it from a thread of
// this process (or any scheduler-domain context). Idempotent.
//
// On a statically opened channel (Proc.Open) the teardown is local and
// immediate: pending piggyback control flushes, the flow tier's timers stop,
// sends still queued on the channel — a head flow or error control was
// holding back included — and every later send return *ChannelClosedError
// instead of hanging; a receive from the peer once nothing it matches is
// stored (one already parked is woken) unwinds with it. The channel stays in
// the table so late credits and acks are consumed and error control can
// finish its in-flight window; arriving data is counted stray and dropped.
// Nothing tells the peer, whose error control gives up as on a dead process.
//
// On a signaled channel (Proc.OpenCall, Config.OnAccept) Close starts the
// handshake CloseCall runs, without waiting: sends fail at once, this end
// drains, RELEASE goes out, and both ends finalize. A CloseCall afterwards
// waits for the end.
func (c *Channel) Close() { c.p.sigStep(c, evClose, CauseNone) }

// Closed reports whether this end has closed the channel for good: Close
// on a static channel, or a signaled channel's finalized teardown.
func (c *Channel) Closed() bool { return c.state.Load() == chanClosed }

// sendUnavailable reports whether new sends must fail: the channel is
// closed, or a signaled close has begun (the closing states keep the
// receiver role live so the peer can drain, but admit no new sends). Safe
// from any goroutine — lane engines call it on the send path.
func (c *Channel) sendUnavailable() bool { return c.state.Load() >= chanClosing }

// sendErr is the admission check of laneSend and Group.fanSend (scheduler
// domain): why a send on c cannot start, or nil. A dead peer comes first, or
// a send after the failure sweep would resurrect a default channel.
func (c *Channel) sendErr() error {
	if pd := c.p.deadPeers[c.peer]; pd != nil {
		return pd
	}
	if c.sendUnavailable() {
		return c.closedErr()
	}
	return nil
}

// closedErr is what a failed send returns and a doomed receive unwinds with:
// the typed *PeerDeadError when the failure sweep tore the channel down, the
// generic closed-channel error otherwise. Scheduler or lane domain
// (deadErr is written under the lane lock by the sweep, read on the same
// paths that observe the state bump that made sendUnavailable true).
func (c *Channel) closedErr() error {
	if c.deadErr != nil {
		return c.deadErr
	}
	return &ChannelClosedError{Local: c.p.cfg.ID, Peer: c.peer, ID: c.id}
}

// lockLane acquires the channel's lane lock and returns the locked lane: the
// out-of-lock entry into the channel's lane domain.
func (c *Channel) lockLane() *lane {
	c.ln.mu.Lock()
	return c.ln
}

// laneLock / laneUnlock guard lane-domain discipline state for the public
// introspection accessors (WindowFlow.Outstanding, GoBackN.Retransmissions,
// ...): that state mutates under the lane lock, possibly in an engine
// goroutine, so a reader outside the lane must take it. Both are no-ops on a
// nil receiver (discipline not yet bound).
func (c *Channel) laneLock() {
	if c != nil {
		c.ln.mu.Lock()
	}
}

func (c *Channel) laneUnlock() {
	if c != nil {
		c.ln.mu.Unlock()
	}
}

// ID returns the channel identifier (0 for the default channel).
func (c *Channel) ID() ChannelID { return c.id }

// Peer returns the remote process the channel connects to.
func (c *Channel) Peer() ProcID { return c.peer }

// Proc returns the owning process (the local end). Accept hooks use it to
// create serving threads for incoming signaled calls.
func (c *Channel) Proc() *Proc { return c.p }

// PeerThread returns the calling-party thread index carried in the SETUP:
// on the callee end of a signaled call, the index of the thread that
// invoked OpenCall, so a serving thread knows where to address its first
// message before the peers have exchanged anything. Zero for statically
// opened channels and on the caller end.
func (c *Channel) PeerThread() int { return c.peerThread }

// Priority returns the channel's drain priority.
func (c *Channel) Priority() int { return c.priority }

// Flow returns the channel's flow-control discipline (for stats and tests).
func (c *Channel) Flow() FlowControl { return c.flow }

// Error returns the channel's error-control discipline.
func (c *Channel) Error() ErrorControl { return c.errc }

// Stats returns the channel's traffic counters. Safe to call while traffic
// is flowing: the counters are read under the lane lock their writers hold,
// so the snapshot is one consistent instant — BytesSent always totals
// exactly the Sent messages, BytesReceived the Received ones.
func (c *Channel) Stats() ChannelStats {
	ln := c.lockLane()
	st := ChannelStats{
		Sent: c.sent, Received: c.received,
		BytesSent: c.bytesSent, BytesReceived: c.bytesReceived,
		CtrlPiggybacked: c.ctrlPiggy, CtrlStandalone: c.ctrlStandalone,
	}
	ln.mu.Unlock()
	st.Lane = ln.idx
	st.Flow, st.Error = c.flow.Name(), c.errc.Name()
	return st
}

// ---------------------------------------------------------------------------
// Piggybacked control

// DefaultCtrlFlushDelay is the piggyback window: how long queued
// reverse-direction control waits for a data frame of its channel before a
// standalone control frame flushes it. It is deliberately far below every
// discipline timescale (retransmission timeouts, window sync), so delaying
// control this long costs latency but never correctness.
const DefaultCtrlFlushDelay = time.Millisecond

// queueCredit files the flow tier's cumulative credit advertisement for
// piggybacking on the next data frame toward the peer. The value is
// cumulative, so a newer call simply supersedes a queued one. The flush
// timer bounds how long it may wait when no reverse data flows.
func (c *Channel) queueCredit(v uint32) {
	c.pendCredit = v
	c.pendCreditOn = true
	c.armFlush()
}

// queueAck files the error tier's cumulative acknowledgement, which
// supersedes a queued one, like queueCredit.
func (c *Channel) queueAck(v uint32) {
	c.pendAck = v
	c.pendAckOn = true
	c.armFlush()
}

// armFlush schedules the standalone fallback for queued control by filing
// the channel on its lane's flush wheel — one timer per lane serves every
// channel with pending control, so 256 idle channels cost at most one armed
// timer each wheel, not 256.
func (c *Channel) armFlush() {
	if c.flushOn || c.Closed() {
		return
	}
	ln := c.ln
	c.flushOn = true
	c.flushAt = time.Duration(c.p.cfg.RT.Now()) + DefaultCtrlFlushDelay
	ln.flushQ.Push(c)
	ln.armWheelLocked()
}

// flushCtrl sends whatever control is still pending as standalone frames:
// one credit advertisement and one ack. No-op when a data frame already
// carried everything. The caller holds the lane lock and is responsible for
// having the lane serviced afterwards (the frames are queued, not yet
// transmitted).
func (c *Channel) flushCtrl() {
	ln := c.ln
	if c.pendCreditOn {
		c.pendCreditOn = false
		c.ctrlStandalone++
		ln.ctrlStandaloneL++
		ln.pushCtrlLocked(c.peer, c.id, tagFlowAck, nil, c.pendCredit)
		c.flow.creditSent(c.pendCredit)
	}
	if c.pendAckOn {
		c.pendAckOn = false
		c.ctrlStandalone++
		ln.ctrlStandaloneL++
		ln.pushCtrlLocked(c.peer, c.id, tagGBNAck, nil, c.pendAck)
	}
}

// admit is the gate on the head of the channel's send queue, run by the lane
// scheduler when the channel's turn comes: error control must have window
// room, then flow control must admit m (charging its credit or tokens), and
// error control stamps and retains it. A discipline that refuses reopens the
// channel once its state changes.
func (c *Channel) admit(m *transport.Message) bool {
	if !c.errc.room() || !c.flow.admit(m) {
		return false
	}
	c.errc.admit(m)
	return true
}

// reopen hands a gated channel back to its lane scheduler: a discipline's
// state changed in a way that may admit the head (a credit, an ack that slid
// the window, the rate timer, an abandon). The caller holds the lane lock and
// has the lane serviced afterwards. A no-op with nothing queued, and on a nil
// receiver (discipline not yet bound).
func (c *Channel) reopen() {
	if c != nil {
		c.ln.pending.ready(c)
	}
}

// wrapTimer adapts a discipline timer callback to the channel's lane domain:
// take the lane lock, run the callback, have whatever it queued serviced
// (retransmissions, credit syncs), then drain the scheduler-domain
// completions. Timer callbacks fire via the runtime's After, always a
// scheduler-domain context, so the drain is legal here. An error-control
// give-up goes to the OnException observer, if any, after the unlock.
func (c *Channel) wrapTimer(fn func() error) func() {
	return func() {
		ln := c.lockLane()
		err := fn()
		ln.leave()
		if err != nil && c.p.giveUp != nil {
			c.p.giveUp(err)
		}
	}
}

// attachPiggy moves pending control onto a departing data frame: the
// credit word and the ack ride for free. Runs in the service pass
// immediately before the frame is handed to the carrier.
// Slots a previous transmission already occupied are skipped (a go-back-N
// retransmission re-sends the exact bytes it carried the first time).
func (c *Channel) attachPiggy(m *transport.Message) {
	ln := c.ln
	if c.pendCreditOn && !m.HasCredit {
		m.Credit, m.HasCredit = c.pendCredit, true
		c.pendCreditOn = false
		c.ctrlPiggy++
		ln.ctrlPiggyL++
		c.flow.creditSent(c.pendCredit)
	}
	if c.pendAckOn && !m.HasAck {
		m.Ack, m.HasAck = c.pendAck, true
		c.pendAckOn = false
		c.ctrlPiggy++
		ln.ctrlPiggyL++
	}
}

// Send transmits data to the channel's peer, addressed to toThread, from
// the calling thread t: NCS_send on an explicit channel. Like Thread.Send
// it parks only the calling thread, and returns the typed failure.
func (c *Channel) Send(t *Thread, toThread int, data []byte) error {
	return c.SendTagged(t, 0, toThread, data)
}

// SendTagged is Send with a user message tag (>= 0).
func (c *Channel) SendTagged(t *Thread, tag, toThread int, data []byte) error {
	if tag < 0 {
		panic("core: negative tags are reserved")
	}
	if t.proc != c.p {
		panic("core: thread sending on another process's channel")
	}
	return c.laneSend(t, tag, toThread, data)
}

// Recv receives the next message the peer sent on this channel to the
// calling thread, from fromThread (or Any). Only the calling thread
// blocks.
func (c *Channel) Recv(t *Thread, fromThread int) ([]byte, Addr) {
	if t.proc != c.p {
		panic("core: thread receiving on another process's channel")
	}
	m, _ := t.recvAnyOf(recvPattern{ch: c.id, tag: Any, from: []Addr{{Proc: c.peer, Thread: fromThread}}})
	return m.Data, srcOf(m)
}

// RecvInto is Recv delivering into the caller's buffer; see
// Thread.RecvInto for the contract (and the allocation-free property).
func (c *Channel) RecvInto(t *Thread, buf []byte, fromThread int) (int, Addr) {
	if t.proc != c.p {
		panic("core: thread receiving on another process's channel")
	}
	return t.recvIntoOn(buf, c.id, Any, []Addr{{Proc: c.peer, Thread: fromThread}})
}

// TryRecv is the non-blocking variant of Recv.
func (c *Channel) TryRecv(t *Thread, fromThread int) (data []byte, from Addr, ok bool) {
	if t.proc != c.p {
		panic("core: thread receiving on another process's channel")
	}
	return t.tryRecv(recvPattern{ch: c.id, tag: Any, from: []Addr{{Proc: c.peer, Thread: fromThread}}})
}

// ---------------------------------------------------------------------------
// Priority queues

// prioQueue fans one logical queue into per-priority head-indexed FIFOs:
// push files an item under its level, pop drains the highest occupied
// level first. This is how a lane's receive side services higher-priority
// channels ahead of bulk traffic, as its send side (laneSched, sched.go)
// does. A bitmask tracks which levels are occupied, so the hot-path
// empty/pop pair is O(1) (bits.Len16 finds the highest set bit) instead of
// scanning all nine levels on every iteration.
type prioQueue[T any] struct {
	lvl  [numSendLevels]list.FIFO[T]
	mask uint16 // bit i set ⇔ lvl[i] non-empty
}

func (q *prioQueue[T]) push(level int, v T) {
	q.lvl[level].Push(v)
	q.mask |= 1 << level
}

func (q *prioQueue[T]) empty() bool { return q.mask == 0 }

func (q *prioQueue[T]) pop() T {
	if q.mask == 0 {
		panic("core: pop from empty priority queue")
	}
	i := bits.Len16(q.mask) - 1
	v := q.lvl[i].Pop()
	if q.lvl[i].Size() == 0 {
		q.mask &^= 1 << i
	}
	return v
}

func (q *prioQueue[T]) prependLevel(level int, vs []T) {
	q.lvl[level].Prepend(vs)
	if len(vs) > 0 {
		q.mask |= 1 << level
	}
}
