package core

import (
	"math/bits"
	"slices"

	"repro/internal/list"
)

// This file is the intra-lane service discipline: the paper's strict
// 9-level priority pop, which the receive side's prioQueue (channel.go) is
// too. Control — credits, acks and signaling, which reopen stalled windows —
// pops first, FIFO, before any data frame. Below it the eight data levels
// drain strictly highest first, and the channels backlogged at one level
// take turns one frame each. A saturating high-priority channel therefore
// holds a lower level off the lane until it drains: that is the paper's
// semantics, and a caller that wants a bulk class protected from it pins
// the class to another lane (ChannelConfig.Lane).
//
// FIFO-within-channel is structural: each channel's requests live in its
// own FIFO (Channel.sq) and only the *order across channels* is
// scheduler-chosen. The channel's flow and error control gate that FIFO's
// head in place (pop, through Channel.admit): a refused head takes its
// channel out of its level's ring with the queue intact, and the discipline
// whose state changes puts it back (Channel.reopen). A gated request
// therefore waits in exactly one place, and a gated channel is not work —
// empty() reads true while every window is shut. Retransmissions
// (Channel.rq) already hold their sequence numbers, so they bypass the gate
// and leave ahead of the channel's fresh sends, at its priority.

// laneSched is one lane's send scheduler: push files a request, pop returns
// the next one to transmit.
//
// All state is guarded by the owning lane's mutex.
type laneSched struct {
	// ctrl is the strict band above all data: control frames and anything
	// without a channel.
	ctrl list.FIFO[*sendReq]

	// ring[l] holds the channels of priority l whose head may be sendable,
	// in the order they became ready; cur[l] is the next one's turn. mask
	// has bit l set while ring[l] is non-empty.
	ring [NumChannelPriorities][]*Channel
	cur  [NumChannelPriorities]int
	mask uint16
}

// push files a request: control (no channel) in the strict band, a
// retransmission on its channel's rq, a fresh send on its sq. A send queued
// behind an older one joins a channel that is either already in its ring or
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

// ready enters a channel with queued requests at the back of its level's
// ring (no-op when it is already there or has nothing queued).
func (s *laneSched) ready(c *Channel) {
	if c.inSched || c.rq.Size()+c.sq.Size() == 0 {
		return
	}
	c.inSched = true
	s.ring[c.priority] = append(s.ring[c.priority], c)
	s.mask |= 1 << c.priority
}

// empty reports that nothing on the lane may be sent now: a gated channel is
// out of the ring, so it does not count.
func (s *laneSched) empty() bool { return s.ctrl.Size() == 0 && s.mask == 0 }

// pop returns the next request to transmit, or nil once nothing queued may
// leave now: control first, then one frame of the channel whose turn it is
// at the highest occupied level. A channel's head leaves unless it is a
// fresh send its disciplines refuse.
func (s *laneSched) pop() *sendReq {
	if s.ctrl.Size() > 0 {
		return s.ctrl.Pop()
	}
	for s.mask != 0 {
		l := bits.Len16(s.mask) - 1
		if s.cur[l] >= len(s.ring[l]) {
			s.cur[l] = 0
		}
		i := s.cur[l]
		c := s.ring[l][i]
		q := &c.rq
		if q.Size() == 0 {
			q = &c.sq
		}
		// Nothing queued (a close swept the channel's sends,
		// failSendsLocked), or gated: the channel waits out of the ring,
		// queue intact.
		if q.Size() == 0 || q == &c.sq && !c.admit(q.Peek().m) {
			s.remove(l, i)
			continue
		}
		req := q.Pop()
		if c.rq.Size()+c.sq.Size() == 0 {
			s.remove(l, i)
		} else {
			s.cur[l] = i + 1
		}
		return req
	}
	return nil
}

// removeChan drops a channel from its ring wherever it sits (no-op when it
// is not there).
func (s *laneSched) removeChan(c *Channel) {
	if !c.inSched {
		return
	}
	if i := slices.Index(s.ring[c.priority], c); i >= 0 {
		s.remove(c.priority, i)
	}
}

// remove takes the channel at index i out of level l's ring. The turn stays
// with the channel that held it: one removed ahead of the cursor shifts it
// left, and removing the cursor's own channel hands the turn to its
// successor.
func (s *laneSched) remove(l, i int) {
	r := s.ring[l]
	r[i].inSched = false
	copy(r[i:], r[i+1:])
	r[len(r)-1] = nil
	s.ring[l] = r[:len(r)-1]
	if i < s.cur[l] {
		s.cur[l]--
	}
	if len(s.ring[l]) == 0 {
		s.mask &^= 1 << l
	}
}
