package core

import (
	"fmt"
	"time"

	"repro/internal/list"
	"repro/internal/transport"
	"repro/internal/wire"
)

// SelectiveRepeat is the second real error-control discipline: per-message
// acknowledgement and retransmission, with a receive window that buffers
// out-of-order arrivals instead of discarding them (go-back-N's weakness
// under loss). It demonstrates that the paper's "error control thread" slot
// is genuinely pluggable: the discipline is selected per channel, exactly
// like flow control in Figure 5. One instance serves one Channel.
type SelectiveRepeat struct {
	// Window bounds in-flight messages on the channel.
	Window int
	// Timeout is the per-message retransmission timer.
	Timeout time.Duration
	// MaxRetries bounds per-message retransmissions before the message is
	// abandoned (dead peer). Defaults to 25.
	MaxRetries int

	p  *Proc
	ch *Channel

	// Sender side.
	// inflight holds the unacknowledged sequences of base..nextSeq-1; an
	// acknowledged or abandoned one is simply absent.
	nextSeq  uint32
	base     uint32
	inflight map[uint32]srPending
	store    retainStore
	// Every timer runs the same Timeout, so they fire in the order they were
	// armed: timers queues the sequence each pending fire is for, and one
	// pre-bound callback serves them all.
	timers list.FIFO[uint32]
	fireFn func()

	// Receiver side: expected is the next in-order sequence; buffered
	// holds out-of-order arrivals inside [expected, expected+Window).
	expected uint32
	buffered map[uint32]*transport.Message

	retrans   int64
	abandoned int64
}

type srPending struct {
	m       *transport.Message
	retries int
}

// NewSelectiveRepeat returns a selective-repeat discipline.
func NewSelectiveRepeat(window int, timeout time.Duration) *SelectiveRepeat {
	if window < 1 || timeout <= 0 {
		panic("core: selective repeat needs window >= 1 and positive timeout")
	}
	return &SelectiveRepeat{Window: window, Timeout: timeout, MaxRetries: 25}
}

// Name implements ErrorControl.
func (s *SelectiveRepeat) Name() string { return "selective-repeat" }

func (s *SelectiveRepeat) fork() ErrorControl {
	f := NewSelectiveRepeat(s.Window, s.Timeout)
	f.MaxRetries = s.MaxRetries
	return f
}

// Retransmissions returns how many copies were re-sent.
func (s *SelectiveRepeat) Retransmissions() int64 {
	s.ch.laneLock()
	defer s.ch.laneUnlock()
	return s.retrans
}

// Abandoned returns how many messages were given up on.
func (s *SelectiveRepeat) Abandoned() int64 {
	s.ch.laneLock()
	defer s.ch.laneUnlock()
	return s.abandoned
}

func (s *SelectiveRepeat) init(c *Channel) {
	if s.ch != nil {
		panic("core: ErrorControl instance bound to two channels; pass a fresh instance per channel")
	}
	s.ch = c
	s.p = c.p
	s.nextSeq = 1
	s.base = 1
	s.expected = 1
	s.store = retainStore{ch: c, window: s.Window}
	s.inflight = make(map[uint32]srPending)
	s.buffered = make(map[uint32]*transport.Message)
	s.fireFn = c.wrapTimer(s.timerFire)
}

func (s *SelectiveRepeat) room() bool { return s.nextSeq-s.base < uint32(s.Window) }

func (s *SelectiveRepeat) admit(m *transport.Message) {
	m.ESeq = s.nextSeq
	s.nextSeq++
	s.inflight[m.ESeq] = srPending{m: s.store.keep(m)}
	s.armTimer(m.ESeq)
}

func (s *SelectiveRepeat) armTimer(seq uint32) {
	s.timers.Push(seq)
	s.p.after(s.Timeout, s.fireFn)
}

// timerFire returns a give-up report past MaxRetries (wrapTimer hands it on).
func (s *SelectiveRepeat) timerFire() error {
	seq := s.timers.Pop()
	pending, ok := s.inflight[seq]
	if !ok {
		return nil
	}
	pending.retries++
	if pending.retries > s.MaxRetries {
		s.abandoned++
		delete(s.inflight, seq)
		s.slide()
		s.p.checkShutdownWake()
		return fmt.Errorf("selective-repeat: gave up on seq %d to proc %d (channel %d)", seq, s.ch.peer, s.ch.id)
	}
	s.inflight[seq] = pending
	s.retrans++
	s.store.resend(pending.m)
	s.armTimer(seq)
	return nil
}

// slide advances base past acked/abandoned sequences and reopens the
// channel into the freed window space. base catches nextSeq one step at a
// time, so the loop condition is wrap-safe.
func (s *SelectiveRepeat) slide() {
	for s.base != s.nextSeq {
		if _, unacked := s.inflight[s.base]; unacked {
			break
		}
		s.base++
	}
	s.ch.reopen()
}

func (s *SelectiveRepeat) onData(m *transport.Message) bool {
	if m.ESeq == 0 {
		return true
	}
	// The receive window is [expected, expected+Window): an honest sender
	// with the same window never transmits past it, so anything beyond is
	// released unacknowledged and buffered bounds at Window-1 messages.
	if ahead := m.ESeq - s.expected; ahead >= uint32(s.Window) && !wire.SeqNewer(s.expected, m.ESeq) {
		m.Release()
		return false
	}
	// Ack every received copy individually (selective ack); acks queue
	// for piggybacking on reverse data, and the flush path batches a
	// burst's worth into one standalone frame when none flows.
	s.ch.queueAck(m.ESeq, false)
	switch {
	case m.ESeq == s.expected:
		s.expected++
		// Flush buffered successors. They must be processed *before*
		// anything already queued behind the current message — a raw
		// arrival sitting in rxq could otherwise match the advanced
		// expected sequence and leapfrog them — so they are prepended to
		// the channel's receive level, with sequences cleared so this
		// discipline passes them through instead of re-filtering them as
		// duplicates.
		var flushed []*transport.Message
		for {
			next, ok := s.buffered[s.expected]
			if !ok {
				break
			}
			delete(s.buffered, s.expected)
			s.expected++
			next.ESeq = 0
			flushed = append(flushed, next)
		}
		if len(flushed) > 0 {
			s.ch.ln.requeueRxLocked(s.ch, flushed)
		}
		return true
	case wire.SeqNewer(m.ESeq, s.expected):
		if _, dup := s.buffered[m.ESeq]; !dup {
			// Retained for the in-order flush: ownership (and the pooled
			// buffer) stays with the message until delivery. The
			// piggybacked control words were already applied on arrival —
			// clear them so the flush re-pass through processLocked does not
			// consume them twice (harmless for the protocol, but it would
			// count phantom stale advertisements).
			m.HasCredit, m.HasAck = false, false
			s.buffered[m.ESeq] = m
		} else {
			m.Release() // copy of an already-buffered arrival
		}
		return false
	default:
		// Duplicate of an already-delivered message: never read again.
		m.Release()
		return false
	}
}

func (s *SelectiveRepeat) onControl(m *transport.Message) {
	forEachCtrlWord(m, s.onAck)
}

// onAck marks one selectively-acknowledged sequence, standalone or
// piggybacked.
func (s *SelectiveRepeat) onAck(seq uint32) {
	if pending, ok := s.inflight[seq]; ok {
		delete(s.inflight, seq)
		s.store.release(pending.m)
		s.slide()
		s.p.checkShutdownWake()
	}
}

func (s *SelectiveRepeat) pending() int { return len(s.inflight) }

// abandon drops every unacked in-flight message: the peer is dead, nothing
// will ack them. Per-sequence timers self-cancel on fire (missing inflight
// entry re-arms nothing).
func (s *SelectiveRepeat) abandon() {
	s.abandoned += int64(len(s.inflight))
	s.inflight = make(map[uint32]srPending)
	s.base = s.nextSeq
	s.ch.reopen()
}
