package core

import (
	"repro/internal/list"
	"repro/internal/wire"
)

// This file is the intra-lane service discipline: deficit round robin (DRR)
// across a lane's data channels, with control kept strictly above. Strict
// priority (the paper's 9-level pop, which the receive side's prioQueue in
// channel.go still is) would let one saturating high-priority channel starve
// a bulk channel on the same lane forever. DRR bounds that: each channel earns
// quantum·weight bytes of service per round, so a priority-0 bulk class
// still drains at its weight share while a priority-6 stream saturates.
//
// Two properties carry over from the strict scheduler:
//
//   - Control first. Credits, acks and signaling pop before any data
//     frame — they are what reopen stalled
//     windows, so no amount of queued data may starve them. Within control,
//     FIFO.
//   - Priority still orders the round. Channels in the active ring are kept
//     sorted by descending priority, and a newly-backlogged channel of
//     higher priority takes the round cursor immediately, so a fresh
//     high-priority frame still overtakes queued bulk — it just can no
//     longer monopolize the lane across rounds.
//
// FIFO-within-channel is structural: each channel's requests live in its
// own FIFO (Channel.sq) and only the *order across channels* is
// scheduler-chosen. The channel's flow and error control gate that FIFO's
// head in place (pop, through Channel.admit): a refused head takes its
// channel out of the active ring with the queue intact, and the discipline
// whose state changes puts it back (Channel.reopen). A gated request therefore
// waits in exactly one place, and a gated channel is not work — empty() reads
// true while every window is shut. Retransmissions (Channel.rq) already hold
// their sequence numbers, so they bypass the gate and leave ahead of the
// channel's fresh sends, at its priority and under its deficit.

// drrQuantum is the byte quantum one weight unit earns per DRR round.
// Weight w therefore guarantees w·2048 bytes of service per round — about
// one small frame for weight 1, so a weight-1 channel with minimal frames
// is served every round (the starvation bound).
const drrQuantum = 2048

// reqCost is a request's service cost in bytes: header plus payload, the
// same units the per-lane load accounting uses.
func reqCost(req *sendReq) int64 { return int64(wire.HeaderSize + len(req.m.Data)) }

// laneSched is one lane's send scheduler: push files a request, pop returns
// the next one to transmit.
//
// All state is guarded by the owning lane's mutex.
type laneSched struct {
	// ctrl is the strict band above all data: control frames and anything
	// without a channel.
	ctrl list.FIFO[*sendReq]

	// active rings the channels whose head may be sendable, sorted by
	// descending priority (stable); cur is the round cursor, fresh marks
	// that the channel at cur has not yet received this round's quantum.
	active []*Channel
	cur    int
	fresh  bool

	// boost scales the per-round quantum up (uniformly — weight ratios are
	// preserved) after a full round in which no channel could afford its
	// head frame, so one oversized frame costs O(log(size/quantum)) rounds
	// of deficit accumulation instead of O(size/quantum). Reset to 1 on
	// every successful pop.
	boost  int64
	served bool

	rounds int64 // completed DRR rounds, for LaneStats
}

// push files a request: control (no channel) in the strict band, a
// retransmission on its channel's rq, a fresh send on its sq. A send queued
// behind an older one joins a channel that is either already in the ring or
// gated, so only a fresh head can schedule the channel.
func (s *laneSched) push(req *sendReq) {
	c := req.ch
	switch {
	case c == nil:
		s.ctrl.Push(req)
		return
	case req.raw:
		c.rq.Push(req)
	default:
		c.sq.Push(req)
		if c.sq.Size() > 1 {
			return
		}
	}
	s.ready(c)
}

// ready enters a channel with queued requests into the active ring (no-op
// when it is already there or has nothing queued).
func (s *laneSched) ready(c *Channel) {
	if c.inSched || c.rq.Size()+c.sq.Size() == 0 {
		return
	}
	c.inSched = true
	// Insert in descending priority order, after existing equals (stable).
	i := len(s.active)
	for i > 0 && s.active[i-1].priority < c.priority {
		i--
	}
	s.active = append(s.active, nil)
	copy(s.active[i+1:], s.active[i:])
	s.active[i] = c
	if i < s.cur {
		// Behind the round cursor: first service next round; keep the
		// cursor on the element it was pointing at.
		s.cur++
	} else if i == s.cur {
		// At the cursor: a higher-priority newcomer preempts the round
		// here (the sort put it at cur precisely because it outranks the
		// old occupant). Grant it a fresh quantum.
		s.fresh = true
	}
}

// empty reports that nothing on the lane may be sent now: a gated channel is
// out of the ring, so it does not count.
func (s *laneSched) empty() bool { return s.ctrl.Size() == 0 && len(s.active) == 0 }

// pop returns the next request to transmit, or nil once nothing queued may
// leave now. A channel's head leaves when its deficit affords it and, unless
// it is a retransmission, its disciplines admit it.
func (s *laneSched) pop() *sendReq {
	if s.ctrl.Size() > 0 {
		return s.ctrl.Pop()
	}
	if s.boost < 1 {
		s.boost = 1
	}
	for len(s.active) > 0 {
		if s.cur >= len(s.active) {
			s.cur = 0
			s.fresh = true
			s.rounds++
			if !s.served && s.boost < 1<<20 {
				s.boost <<= 1
			}
			s.served = false
		}
		c := s.active[s.cur]
		q := &c.rq
		if q.Size() == 0 {
			q = &c.sq
		}
		if q.Size() == 0 {
			// A close swept the channel's sends (failSendsLocked).
			s.removeCur()
			continue
		}
		if s.fresh {
			c.deficit += int64(c.weight) * drrQuantum * s.boost
			s.fresh = false
		}
		req := q.Peek()
		cost := reqCost(req)
		if c.deficit < cost {
			s.cur++
			s.fresh = true
			continue
		}
		if q == &c.sq && !c.admit(req.m) {
			// Gated: the channel waits out of the ring, queue intact.
			s.removeCur()
			continue
		}
		c.deficit -= cost
		q.Pop()
		s.served = true
		s.boost = 1
		if c.rq.Size()+c.sq.Size() == 0 {
			s.removeCur()
		}
		return req
	}
	return nil
}

// removeChan drops a channel from the active ring wherever it sits (no-op
// when it is not there). The cursor math mirrors ready: an element removed
// before the cursor shifts the round left, and removing the cursor's own
// channel hands the (fresh) quantum to its successor.
func (s *laneSched) removeChan(c *Channel) {
	if !c.inSched {
		return
	}
	c.inSched = false
	c.deficit = 0
	for i, x := range s.active {
		if x != c {
			continue
		}
		copy(s.active[i:], s.active[i+1:])
		s.active[len(s.active)-1] = nil
		s.active = s.active[:len(s.active)-1]
		if i < s.cur {
			s.cur--
		} else if i == s.cur {
			s.fresh = true
		}
		break
	}
}

// removeCur drops the channel at the cursor from the active ring: its
// backlog is gone or gated, so its deficit resets (textbook DRR — an idle
// channel banks nothing).
func (s *laneSched) removeCur() {
	c := s.active[s.cur]
	c.deficit = 0
	c.inSched = false
	copy(s.active[s.cur:], s.active[s.cur+1:])
	s.active[len(s.active)-1] = nil
	s.active = s.active[:len(s.active)-1]
	s.fresh = true
}
