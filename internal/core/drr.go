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
// scheduler-chosen. Discipline single-ownership is likewise untouched —
// admission still runs at pop time in serviceLocked, under the lane lock.

// drrQuantum is the byte quantum one weight unit earns per DRR round.
// Weight w therefore guarantees w·2048 bytes of service per round — about
// one small frame for weight 1, so a weight-1 channel with minimal frames
// is served every round (the starvation bound).
const drrQuantum = 2048

// reqCost is a request's service cost in bytes: header plus payload, the
// same units the per-lane load accounting uses.
func reqCost(req *sendReq) int64 { return int64(wire.HeaderSize + len(req.m.Data)) }

// laneSched is one lane's send scheduler. It is push/pop/empty-compatible
// with the prioQueue it replaced: push files a request under a level
// (ctrlLevel selects the strict control band, anything else the owning
// channel's DRR queue), pop returns the next request to service.
//
// All state is guarded by the owning lane's mutex.
type laneSched struct {
	// ctrl is the strict band above all data: control frames and anything
	// without a channel.
	ctrl list.FIFO[*sendReq]

	// active rings the channels with queued data, sorted by descending
	// priority (stable); cur is the round cursor, fresh marks that the
	// channel at cur has not yet received this round's quantum.
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

func (s *laneSched) push(level int, req *sendReq) {
	c := req.ch
	if level == ctrlLevel || c == nil {
		s.ctrl.Push(req)
		return
	}
	c.sq.Push(req)
	if c.inSched {
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

func (s *laneSched) empty() bool { return s.ctrl.Size() == 0 && len(s.active) == 0 }

func (s *laneSched) pop() *sendReq {
	if s.ctrl.Size() > 0 {
		return s.ctrl.Pop()
	}
	if s.boost < 1 {
		s.boost = 1
	}
	for {
		if len(s.active) == 0 {
			panic("core: pop from empty lane scheduler")
		}
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
		if c.sq.Size() == 0 {
			// Defensive: push/pop keep active ⇔ sq non-empty in sync, but a
			// stale entry must not wedge the round.
			s.removeCur()
			continue
		}
		if s.fresh {
			c.deficit += int64(c.weight) * drrQuantum * s.boost
			s.fresh = false
		}
		if cost := reqCost(c.sq.Peek()); c.deficit >= cost {
			c.deficit -= cost
			req := c.sq.Pop()
			s.served = true
			s.boost = 1
			if c.sq.Size() == 0 {
				s.removeCur()
			}
			return req
		}
		s.cur++
		s.fresh = true
	}
}

// removeChan drops a closing channel from the active ring wherever it
// sits (no-op when it has no backlog). The cursor math mirrors push: an
// element removed before the cursor shifts the round left, and removing
// the cursor's own channel hands the (fresh) quantum to its successor.
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
// backlog is gone, so its deficit resets (textbook DRR — an idle channel
// banks nothing).
func (s *laneSched) removeCur() {
	c := s.active[s.cur]
	c.deficit = 0
	c.inSched = false
	copy(s.active[s.cur:], s.active[s.cur+1:])
	s.active[len(s.active)-1] = nil
	s.active = s.active[:len(s.active)-1]
	s.fresh = true
}
