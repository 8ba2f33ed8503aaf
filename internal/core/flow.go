package core

import (
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// FlowControl is the pluggable discipline the paper's flow-control thread
// implements (Figure 5: different applications select different mechanisms
// at run time — NCS_init(flow, error)). One instance serves one Channel:
// the discipline is a per-channel state machine, so two channels between
// the same process pair pace and window independently. Instances passed to
// core.New act as templates for default channels (fork produces a fresh
// per-channel copy); instances passed to Proc.Open are used directly and
// must not be shared across channels.
//
// Admission is a decision about the head of the channel's send queue, never
// a wait: the send system thread must stay free to carry control traffic
// (credit returns, acknowledgements) even while data is gated, otherwise two
// peers with full windows toward each other could deadlock waiting for
// credits neither can send. A discipline that refuses the head leaves it
// where it is — the lane scheduler takes the channel out of its ring — and
// reopens the channel (Channel.reopen) when its state changes.
type FlowControl interface {
	// Name identifies the discipline.
	Name() string
	// fork returns a fresh, unbound instance with the same parameters.
	fork() FlowControl
	init(c *Channel)
	// admit either clears the channel's head m for transmission and charges
	// it (true), or refuses it and reopens the channel once it could pass
	// (false).
	admit(m *transport.Message) bool
	// onDelivered runs when a data message has been delivered locally and
	// may generate control traffic (e.g. a credit advertisement).
	onDelivered(m *transport.Message)
	// onControl consumes this discipline's control messages.
	onControl(m *transport.Message)
	// onCredit consumes one credit advertisement word, whether it arrived
	// in a standalone control frame (onControl routes here) or
	// piggybacked on a reverse-direction data frame.
	onCredit(v uint32)
	// creditSent notifies the receiver role that a queued advertisement
	// actually left (piggybacked or flushed standalone), so threshold
	// bookkeeping tracks what the peer has really been told.
	creditSent(v uint32)
	// shutdown stops the discipline's timers. Runs at Channel.Close and at
	// process close; it must be idempotent.
	shutdown()
}

// NoFlowControl is the paper's Approach-1 default: rely on the transport
// underneath (p4 over TCP provides its own flow control).
type NoFlowControl struct{}

// Name implements FlowControl.
func (NoFlowControl) Name() string                   { return "none" }
func (NoFlowControl) fork() FlowControl              { return NoFlowControl{} }
func (NoFlowControl) init(*Channel)                  {}
func (NoFlowControl) admit(*transport.Message) bool  { return true }
func (NoFlowControl) onDelivered(*transport.Message) {}
func (NoFlowControl) onControl(*transport.Message)   {}
func (NoFlowControl) onCredit(uint32)                {}
func (NoFlowControl) creditSent(uint32)              {}
func (NoFlowControl) shutdown()                      {}

// DefaultWindowSyncInterval is the period of WindowFlow's window-sync
// timer when the channel does not configure its own.
const DefaultWindowSyncInterval = 50 * time.Millisecond

// WindowFlow is credit-based flow control: at most Window messages may be
// outstanding (sent but not credited back) on the channel. Suited to the
// parallel/distributed application class in Figure 5 (bursty, loss-averse).
//
// The credit protocol is loss-proof by construction — it must be, because
// the carriers the paper targets (ATM fabrics) drop cells, and a control
// frame is as mortal as a data frame. Instead of
// per-delivery credit pulses (where one lost pulse permanently shrinks the
// window), the receiver advertises its *cumulative* delivered count in
// every tagFlowAck payload. Credits are therefore idempotent and
// self-superseding: any later advertisement carries everything a lost one
// did, and wire.SeqNewer ordering makes duplicates and reorderings
// harmless. A periodic window-sync timer (the runtime's After, so it ticks
// under both real and virtual clocks) re-advertises the count on idle
// channels, recovering even a lost *final* credit that no further delivery
// would ever repair.
//
// Flow control recovers lost credits, not lost data: a data message the
// carrier eats is the error-control tier's to retransmit (compose with
// GoBackN or SelectiveRepeat on lossy fabrics). Once error control
// redelivers it, the receiver's cumulative count advances and the window
// reopens.
//
// Advertisements ride the data plane when they can: between forced
// advertisements the cumulative count waits on the channel for a
// reverse-direction data frame to piggyback on (or the channel's flush
// timer). Every advertEvery = ¾·Window deliveries the count is flushed
// immediately so a one-way peer's window never runs dry waiting for
// reverse traffic — one standalone frame then covers the whole batch of
// deliveries, which is why steady one-way flow costs ~1/advertEvery
// control frames per message instead of one each. Loss semantics are
// untouched: a piggybacked advertisement that dies with its frame is
// superseded exactly like a standalone one.
type WindowFlow struct {
	// Window is the channel's credit (>= 1).
	Window int
	// SyncInterval is the window-sync re-advertisement period; 0 selects
	// DefaultWindowSyncInterval. Set it below the carrier's loss-recovery
	// timescale so a dropped credit stalls the sender at most one period.
	SyncInterval time.Duration

	c      *Channel
	closed bool

	// Sender side: absolute counters (serial-number arithmetic, so wrap is
	// fine). sent counts data messages admitted on the channel; credited is
	// the highest cumulative delivered count the peer has advertised.
	// outstanding = sent - credited, and admission holds it under Window.
	sent     uint32
	credited uint32

	// Receiver side: cumulative count of data messages delivered locally,
	// advertised to the peer piggybacked on reverse data or in standalone
	// control frames, and re-advertised on every sync tick. lastAdv is
	// the newest count actually sent; advertEvery is the delivery count
	// past lastAdv that forces an immediate standalone advertisement
	// (3/4 of the window) so the peer's window never runs dry waiting for
	// a piggyback opportunity — between thresholds the advertisement
	// rides reverse data frames or the channel's flush timer.
	delivered   uint32
	lastAdv     uint32
	advertEvery uint32
	syncOn      bool
	syncFn      func()
	// idleSyncs counts consecutive sync ticks with no intervening
	// delivery; past maxIdleSyncs the timer stops re-arming so a
	// long-lived idle channel does not chatter forever (the next delivery
	// re-arms it).
	idleSyncs int

	syncs int64 // periodic re-advertisements sent
	stale int64 // stale/duplicate advertisements ignored
}

// maxIdleSyncs bounds consecutive re-advertisements on an idle channel.
// Recovery of a lost final credit fails only if all of them are lost
// (loss-rate^25 — negligible on any fabric worth running on), and each
// delivery burst costs at most this many idle control frames.
const maxIdleSyncs = 25

// NewWindowFlow returns a window-based discipline.
func NewWindowFlow(window int) *WindowFlow {
	if window < 1 {
		panic("core: window must be >= 1")
	}
	return &WindowFlow{Window: window}
}

// Name implements FlowControl.
func (w *WindowFlow) Name() string { return "window" }

func (w *WindowFlow) fork() FlowControl {
	f := NewWindowFlow(w.Window)
	f.SyncInterval = w.SyncInterval
	return f
}

func (w *WindowFlow) init(c *Channel) {
	if w.c != nil {
		panic("core: FlowControl instance bound to two channels; pass a fresh instance per channel")
	}
	w.c = c
	if w.SyncInterval <= 0 {
		w.SyncInterval = DefaultWindowSyncInterval
	}
	w.advertEvery = uint32(3 * w.Window / 4)
	if w.advertEvery < 1 {
		w.advertEvery = 1
	}
	// Pre-bound so each re-arm schedules without a fresh closure; wrapped
	// so it runs in the channel's lane domain.
	w.syncFn = c.wrapTimer(w.syncFire)
}

func (w *WindowFlow) admit(*transport.Message) bool {
	if w.outstanding() < w.Window {
		w.sent++
		return true
	}
	return false
}

func (w *WindowFlow) outstanding() int { return int(w.sent - w.credited) }

func (w *WindowFlow) onDelivered(m *transport.Message) {
	w.delivered++
	w.idleSyncs = 0
	if w.delivered-w.lastAdv >= w.advertEvery {
		// Enough credit has accumulated that the peer's window may be
		// running dry: advertise right now, standalone if need be.
		w.advertise()
	} else {
		// Defer: the advertisement rides the next data frame toward the
		// peer, or the channel's flush timer sends it standalone. Either
		// way it is cumulative, so one frame covers every delivery since
		// the last advertisement.
		w.c.queueCredit(w.delivered)
	}
	w.armSync()
}

// advertise queues the cumulative delivered count as a standalone control
// frame on the spot, under every driver (the peer's window may be running
// dry): it does not wait for a ride. Absolute, not incremental: losing this
// frame costs nothing once any later one (or a sync tick's re-advertisement)
// gets through.
func (w *WindowFlow) advertise() {
	w.c.pendCredit = w.delivered
	w.c.pendCreditOn = true
	w.c.flushCtrl()
}

// creditSent implements FlowControl: a queued advertisement left the
// process (on a data frame or standalone), so the threshold counts from
// this value now.
func (w *WindowFlow) creditSent(v uint32) { w.lastAdv = v }

func (w *WindowFlow) onControl(m *transport.Message) {
	forEachCtrlWord(m, w.onCredit)
}

// onCredit consumes one cumulative advertisement, standalone or
// piggybacked.
func (w *WindowFlow) onCredit(adv uint32) {
	if !wire.SeqNewer(adv, w.credited) || wire.SeqNewer(adv, w.sent) {
		// Duplicate or reordered advertisement: a newer one already
		// superseded it, and credits never move backwards. Or one that
		// credits more than was ever sent: adopting it would wrap
		// outstanding() and make every honest credit after it look stale.
		w.stale++
		return
	}
	w.credited = adv
	w.c.reopen()
}

func (w *WindowFlow) armSync() {
	if w.syncOn || w.closed {
		return
	}
	w.syncOn = true
	w.c.p.after(w.SyncInterval, w.syncFn)
}

// syncFire is the window-sync timer: re-advertise the cumulative count so
// an idle channel heals a lost trailing credit. armSync starts it lazily
// on first delivery (a send-only channel end never ticks), it re-arms
// while deliveries keep coming, and it stops after maxIdleSyncs ticks of
// silence or at shutdown.
func (w *WindowFlow) syncFire() error {
	w.syncOn = false
	if w.closed || w.idleSyncs >= maxIdleSyncs {
		return nil
	}
	w.idleSyncs++
	w.syncs++
	w.advertise()
	w.armSync()
	return nil
}

func (w *WindowFlow) shutdown() { w.closed = true }

// Outstanding returns how many messages are sent but not yet credited;
// tests use it to verify the window invariant. It can exceed zero
// transiently under credit loss, but never exceeds Window, and converges
// back as cumulative advertisements land.
func (w *WindowFlow) Outstanding() int {
	w.c.laneLock()
	defer w.c.laneUnlock()
	return w.outstanding()
}

// Syncs returns how many periodic window-sync re-advertisements this end
// has sent; for tests and experiment reporting.
func (w *WindowFlow) Syncs() int64 {
	w.c.laneLock()
	defer w.c.laneUnlock()
	return w.syncs
}

// StaleCredits returns how many stale or duplicate credit advertisements
// were ignored; for tests and experiment reporting.
func (w *WindowFlow) StaleCredits() int64 {
	w.c.laneLock()
	defer w.c.laneUnlock()
	return w.stale
}

// RateFlow is token-bucket pacing: data leaves at no more than Rate bytes
// per second with bursts up to Bucket bytes. This is the QOS discipline a
// Video-on-Demand application selects (Figure 5's FC1 vs FC2).
type RateFlow struct {
	// Rate is the sustained payload rate in bytes/second.
	Rate float64
	// Bucket is the burst capacity in bytes.
	Bucket float64

	c      *Channel
	tokens float64
	last   time.Duration // virtual/real time of last refill

	// A refused head arms one wakeup timer sized for its deficit. The head
	// stays at the front of the channel's queue meanwhile, so a small
	// message paced behind a large one can never overtake it.
	timerOn bool
	fireFn  func()
}

// NewRateFlow returns a token-bucket discipline.
func NewRateFlow(bytesPerSecond, bucketBytes float64) *RateFlow {
	if bytesPerSecond <= 0 || bucketBytes <= 0 {
		panic("core: rate and bucket must be positive")
	}
	return &RateFlow{Rate: bytesPerSecond, Bucket: bucketBytes}
}

// Name implements FlowControl.
func (r *RateFlow) Name() string { return "rate" }

func (r *RateFlow) fork() FlowControl { return NewRateFlow(r.Rate, r.Bucket) }

func (r *RateFlow) init(c *Channel) {
	if r.c != nil {
		panic("core: FlowControl instance bound to two channels; pass a fresh instance per channel")
	}
	r.c = c
	r.tokens = r.Bucket
	r.last = time.Duration(c.p.cfg.RT.Now())
	r.fireFn = c.wrapTimer(r.timerFire)
}

func (r *RateFlow) refill() {
	now := time.Duration(r.c.p.cfg.RT.Now())
	r.tokens += r.Rate * (now - r.last).Seconds()
	if r.tokens > r.Bucket {
		r.tokens = r.Bucket
	}
	r.last = now
}

// admit charges the head's token cost (an oversized message drains a full
// bucket), or refuses it and arms one wakeup for when its deficit will have
// accumulated.
func (r *RateFlow) admit(m *transport.Message) bool {
	need := float64(len(m.Data))
	if need > r.Bucket {
		need = r.Bucket
	}
	r.refill()
	if r.tokens >= need {
		r.tokens -= need
		return true
	}
	if !r.timerOn {
		wait := time.Duration((need - r.tokens) / r.Rate * float64(time.Second))
		if wait < time.Microsecond {
			wait = time.Microsecond
		}
		r.timerOn = true
		r.c.p.after(wait, r.fireFn)
	}
	return false
}

// timerFire offers the head again; one that is still short re-arms. A timer
// in flight when the channel closed finds nothing queued to offer.
func (r *RateFlow) timerFire() error {
	r.timerOn = false
	r.c.reopen()
	return nil
}

func (r *RateFlow) onDelivered(*transport.Message) {}
func (r *RateFlow) onControl(*transport.Message)   {}
func (r *RateFlow) onCredit(uint32)                {}
func (r *RateFlow) creditSent(uint32)              {}
func (r *RateFlow) shutdown()                      {}

// forEachCtrlWord iterates the 4-byte words of a control payload in order.
// Flush frames batch several acknowledgements into one frame (selective
// repeat's ack bursts); cumulative consumers are word-order insensitive
// anyway.
func forEachCtrlWord(m *transport.Message, fn func(uint32)) {
	for b := m.Data; len(b) >= 4; b = b[4:] {
		fn(wire.Uint32(b))
	}
}
