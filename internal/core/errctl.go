package core

import (
	"fmt"
	"time"

	"repro/internal/budget"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ErrorControl is the pluggable error-control discipline (the paper's error
// control thread, selected by NCS_init's second argument). Approach 1 needs
// none — p4/TCP is reliable — so NoErrorControl is the default; GoBackN
// provides reliability over lossy transports (the Mem transport's fault
// injection, or a raw ATM VC without SSCOP). Like FlowControl, one
// instance serves one Channel: sequence numbers, windows, and timers are
// per-channel state, so loss on a bulk channel never stalls or reorders a
// stream channel sharing the process pair.
//
// Admission is non-blocking: a full retransmission window leaves the head
// of the channel's send queue where it is (the lane scheduler takes the
// channel out of its ring) instead of stalling the service pass, which must
// stay free to carry retransmissions and acknowledgements; an ack that slides
// the window, or an abandon, reopens the channel.
type ErrorControl interface {
	// Name identifies the discipline.
	Name() string
	// fork returns a fresh, unbound instance with the same parameters.
	fork() ErrorControl
	init(c *Channel)
	// room reports whether the window has space for one more message.
	room() bool
	// admit stamps and retains m for transmission; room was true.
	admit(m *transport.Message)
	// onData inspects an arriving data message; it returns false to
	// suppress delivery (duplicate or out-of-order under go-back-N).
	onData(m *transport.Message) bool
	// onControl consumes this discipline's control messages (acks).
	onControl(m *transport.Message)
	// onAck consumes one acknowledgement word, whether it arrived in a
	// standalone control frame (onControl routes each payload word here)
	// or piggybacked on a reverse-direction data frame. Its meaning is
	// discipline-defined: cumulative under go-back-N, selective under
	// selective repeat.
	onAck(v uint32)
	// pending reports in-flight messages still awaiting acknowledgement;
	// the process's system threads stay alive while it is non-zero.
	pending() int
	// abandon drops the in-flight window without retransmission: the peer
	// is dead, so nothing unacked will ever be acknowledged and retrying
	// only burns timers. The emptied window reopens the channel.
	// Idempotent.
	abandon()
}

// NoErrorControl trusts the transport.
type NoErrorControl struct{}

// Name implements ErrorControl.
func (NoErrorControl) Name() string                   { return "none" }
func (NoErrorControl) fork() ErrorControl             { return NoErrorControl{} }
func (NoErrorControl) init(*Channel)                  {}
func (NoErrorControl) room() bool                     { return true }
func (NoErrorControl) admit(*transport.Message)       {}
func (NoErrorControl) onData(*transport.Message) bool { return true }
func (NoErrorControl) onControl(*transport.Message)   {}
func (NoErrorControl) onAck(uint32)                   {}
func (NoErrorControl) pending() int                   { return 0 }
func (NoErrorControl) abandon()                       {}

// retainStore keeps the private copies an error-control discipline holds
// for retransmission, one store per channel, for both disciplines. The copy
// itself is the contract's price — Send lets the caller reuse its buffer the
// moment the first transmission is serialized, and collective hot paths
// (BcastInto, Gather's pack buffer) do exactly that, so an aliased
// retransmission would carry the *next* operation's bytes under the old
// sequence number — but the Message and the bytes it lands in are recycled:
// the ack path refills a freelist that admission draws from, so a loss-free
// stream allocates nothing per message. Channels without error control pay
// nothing. Callers hold the lane lock.
type retainStore struct {
	ch *Channel
	// free holds acknowledged copies, at most window of them.
	free   []*transport.Message
	window int
}

// keep returns a private copy of m, payload bytes included.
func (s *retainStore) keep(m *transport.Message) *transport.Message {
	var cp *transport.Message
	if n := len(s.free); n > 0 {
		cp, s.free = s.free[n-1], s.free[:n-1]
	} else {
		cp = &transport.Message{}
	}
	data := append(cp.Data[:0], m.Data...)
	budget.Add(budget.SendCopied, len(data))
	*cp = *m
	cp.Data = data
	return cp
}

// release takes back a copy that was acknowledged. A retransmission request
// aliases the retained bytes (resend), so while any is still queued or on
// the carrier a released copy may yet be read: it goes to the collector
// instead of being overwritten by the next admission. Loss is rare; the
// freelist serves the loss-free path.
func (s *retainStore) release(m *transport.Message) {
	if s.ch.rawReqs == 0 && len(s.free) < s.window {
		s.free = append(s.free, m)
	}
}

// resend queues a retransmission of the retained copy m on the channel's
// retransmission queue, which bypasses admission: the original sequence
// number is kept, and it never waits behind a gated head. Request and message
// header come from the freelists they return to: the lane's, whose lock the
// timer holds. The header is a copy because the service pass attaches this
// transmission's piggyback words to it; the payload is m's own.
func (s *retainStore) resend(m *transport.Message) {
	ln := s.ch.ln
	cp := ln.getDataMsg()
	*cp = *m
	req := ln.getReq()
	req.m = cp
	req.ch = s.ch
	req.raw = true
	s.ch.rawReqs++
	ln.pending.push(req)
}

// GoBackN is sliding-window ARQ with cumulative acks and a retransmission
// timer, per channel. ESeq numbers start at 1; an ack carries the highest
// in-order sequence received.
type GoBackN struct {
	// Window bounds in-flight messages on the channel.
	Window int
	// Timeout is the retransmission timer.
	Timeout time.Duration
	// MaxRetries bounds consecutive timer firings without window progress;
	// past it the stuck window is abandoned (best-effort delivery to a
	// dead peer). Defaults to 25.
	MaxRetries int

	p  *Proc
	ch *Channel

	// Sender side.
	nextSeq uint32               // next ESeq to assign
	base    uint32               // oldest unacked
	unacked []*transport.Message // in-flight copies, base..nextSeq-1
	store   retainStore
	// The timer measures time without progress: progress records that an
	// ack slid the window since the timer was armed, and a fire that finds
	// it set only re-arms.
	timerOn  bool
	progress bool
	// stall counts timer firings without base progress; MaxRetries bounds
	// it so a dead peer cannot keep the process alive forever.
	stall int

	// Receiver side.
	expected uint32

	// fireFn is the pre-bound, lane-wrapped timer callback, so each re-arm
	// schedules without a fresh closure.
	fireFn func()

	retrans   int64
	abandoned int64
}

// NewGoBackN returns a go-back-N discipline.
func NewGoBackN(window int, timeout time.Duration) *GoBackN {
	if window < 1 || timeout <= 0 {
		panic("core: go-back-N needs window >= 1 and positive timeout")
	}
	return &GoBackN{Window: window, Timeout: timeout, MaxRetries: 25}
}

// Name implements ErrorControl.
func (g *GoBackN) Name() string { return "go-back-n" }

func (g *GoBackN) fork() ErrorControl {
	f := NewGoBackN(g.Window, g.Timeout)
	f.MaxRetries = g.MaxRetries
	return f
}

// Retransmissions returns how many copies were re-sent; for tests and
// experiment reporting.
func (g *GoBackN) Retransmissions() int64 {
	g.ch.laneLock()
	defer g.ch.laneUnlock()
	return g.retrans
}

// Abandoned returns how many messages were given up on (dead peer).
func (g *GoBackN) Abandoned() int64 {
	g.ch.laneLock()
	defer g.ch.laneUnlock()
	return g.abandoned
}

func (g *GoBackN) init(c *Channel) {
	if g.ch != nil {
		panic("core: ErrorControl instance bound to two channels; pass a fresh instance per channel")
	}
	g.ch = c
	g.p = c.p
	g.store = retainStore{ch: c, window: g.Window}
	g.nextSeq = 1
	g.base = 1
	g.expected = 1
	g.fireFn = c.wrapTimer(g.timerFire)
}

func (g *GoBackN) room() bool { return g.nextSeq-g.base < uint32(g.Window) }

func (g *GoBackN) admit(m *transport.Message) {
	m.ESeq = g.nextSeq
	g.nextSeq++
	g.unacked = append(g.unacked, g.store.keep(m))
	g.armTimer()
}

func (g *GoBackN) armTimer() {
	if g.timerOn {
		return
	}
	g.timerOn = true
	g.progress = false
	g.p.after(g.Timeout, g.fireFn)
}

// timerFire returns a give-up report past MaxRetries (wrapTimer hands it on).
func (g *GoBackN) timerFire() error {
	g.timerOn = false
	if len(g.unacked) == 0 {
		return nil
	}
	if g.progress {
		// Acks slid the window while the timer ran: nothing has waited a
		// Timeout yet. Resending the window here is what a loss-free bulk
		// stream used to pay every Timeout — a window of frames the
		// receiver reassembles, checks and discards.
		g.armTimer()
		return nil
	}
	g.stall++
	if g.stall > g.MaxRetries {
		// The peer looks dead: abandon the window so the process can
		// terminate instead of retransmitting forever. Queued sends flow
		// out best-effort through the now-open window.
		gaveUp := len(g.unacked)
		g.abandon()
		g.p.checkShutdownWake()
		return fmt.Errorf("go-back-N: gave up on %d messages to proc %d (channel %d)", gaveUp, g.ch.peer, g.ch.id)
	}
	// Go-back-N: re-queue every unacked message.
	for _, m := range g.unacked {
		g.retrans++
		g.store.resend(m)
	}
	g.armTimer()
	return nil
}

func (g *GoBackN) onData(m *transport.Message) bool {
	if m.ESeq == 0 {
		// Peer not running error control (mixed configuration): accept.
		return true
	}
	switch {
	case m.ESeq == g.expected:
		g.expected++
		g.sendAck(g.expected - 1)
		return true
	case wire.SeqNewer(g.expected, m.ESeq):
		// Duplicate: re-ack so the sender's window slides. The frame will
		// never be read, so its pooled buffer recycles here.
		g.sendAck(g.expected - 1)
		m.Release()
		return false
	default:
		// Gap: discard and re-ack the last in-order sequence.
		g.sendAck(g.expected - 1)
		m.Release()
		return false
	}
}

// sendAck queues the cumulative ack for piggybacking on reverse data (or
// the channel's flush timer): being cumulative, a newer value simply
// supersedes a queued one, so a burst of arrivals costs one ack frame.
func (g *GoBackN) sendAck(upTo uint32) {
	g.ch.queueAck(upTo, true)
}

func (g *GoBackN) onControl(m *transport.Message) {
	forEachCtrlWord(m, g.onAck)
}

// onAck slides the window up to a cumulative ack, standalone or
// piggybacked. Comparisons are wrap-safe (wire.SeqNewer), like the flow
// tier's credit advertisements.
func (g *GoBackN) onAck(acked uint32) {
	n := 0
	for n < len(g.unacked) && !wire.SeqNewer(g.unacked[n].ESeq, acked) {
		g.store.release(g.unacked[n])
		n++
	}
	if n == 0 {
		return
	}
	// Slide in place: re-slicing from the front walks the window off its
	// backing array, which then regrows every Window messages.
	k := copy(g.unacked, g.unacked[n:])
	clear(g.unacked[k:])
	g.unacked = g.unacked[:k]
	g.base += uint32(n)
	g.stall = 0
	g.progress = true
	g.ch.reopen()
	g.p.checkShutdownWake()
}

func (g *GoBackN) pending() int { return len(g.unacked) }

// abandon drops the unacked window: the peer is dead, retransmitting is
// futile. A pending timer self-cancels on fire (empty window re-arms
// nothing).
func (g *GoBackN) abandon() {
	g.abandoned += int64(len(g.unacked))
	g.base = g.nextSeq
	g.unacked = nil
	g.ch.reopen()
}
