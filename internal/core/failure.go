package core

import (
	"fmt"
	"sort"
	"time"
)

// This file is the failure domain: detection and teardown when a peer
// process crashes or the network partitions — the cases frame-loss chaos
// never exercises, where every retransmission is futile and a blocked
// caller would otherwise park forever.
//
//   - Detection: a heartbeat failure detector (Config.Heartbeat) rides the
//     channel-0 signaling band. Every Interval the proc pings each peer it
//     has channels to; a peer silent for Misses consecutive intervals is
//     declared DEAD. All timers ride the runtime's After, so detection is
//     deterministic on a virtual mesh.
//   - Teardown: peerDead steps every channel to the dead peer through the
//     lifecycle table's peer-dead event (signal.go) — parked sends fail, error-
//     control windows abandon instead of retransmitting into the void, VC
//     routes release — then one sweep fails every receive (and with it any
//     in-flight collective) the death dooms, all with the typed
//     *PeerDeadError, and Proc.Leaks() still balances to zero. The same
//     predicate (doomed) and sweep serve a local close: a receiver parked
//     on a channel this end closes or finalizes wakes with
//     *ChannelClosedError.
//
// An application survives a peer restart or a healed partition by calling
// OpenCall again: a fresh SETUP, sent or received, clears the peer's death
// record.

// tagSigBeat extends the signaling tag space (signal.go) with the
// heartbeat: a one-word frame on channel 0, word 0 = ping, 1 = ack.
const tagSigBeat = -11

// Heartbeat configures the failure detector (Config.Heartbeat).
type Heartbeat struct {
	// Interval is the beat period; 0 disables detection entirely.
	Interval time.Duration
	// Misses is how many consecutive silent intervals declare a peer dead;
	// 0 selects DefaultHeartbeatMisses. Worst-case detection latency is
	// (Misses+1)×Interval of scheduler time: one interval of grace for the
	// first observation plus Misses silent ones.
	Misses int
}

// DefaultHeartbeatMisses is the miss budget when Heartbeat.Misses is zero.
const DefaultHeartbeatMisses = 3

// PeerDeadError is the typed failure the detector attaches to everything it
// tears down: failed sends, woken receivers, aborted call setups.
type PeerDeadError struct {
	Local, Peer ProcID
	// Missed is how many beat intervals went silent; Elapsed how long ago
	// the peer was last heard (scheduler time).
	Missed  int
	Elapsed time.Duration
}

func (e *PeerDeadError) Error() string {
	return fmt.Sprintf("core(proc %d): peer %d dead (%d beats missed, silent %v)",
		e.Local, e.Peer, e.Missed, e.Elapsed)
}

// hbPeer is one monitored peer's detector state (scheduler domain).
type hbPeer struct {
	heard     bool
	misses    int
	lastHeard time.Duration
}

// markFail records a failure-domain decision on the proc's trace timeline
// (no-op without a Tracer): beats missed, peers declared dead, channels
// force-closed.
func (p *Proc) markFail(label string) {
	if p.cfg.Tracer != nil {
		p.cfg.Tracer.Mark(p.cfg.TraceName+"/fail", label)
	}
}

// startHeartbeat arms the proc-wide beat chain: one self-rescheduling timer
// serves every monitored peer, so a proc with 255 channels costs one armed
// timer per interval, not 255. Called from New; the chain stops re-arming
// once the proc is closing, so a virtual-time engine can quiesce.
func (p *Proc) startHeartbeat() {
	hb := p.cfg.Heartbeat
	if hb.Interval <= 0 {
		return
	}
	p.hbMisses = hb.Misses
	if p.hbMisses <= 0 {
		p.hbMisses = DefaultHeartbeatMisses
	}
	p.hbPeers = make(map[ProcID]*hbPeer)
	var tick func()
	tick = func() {
		if p.closing.Load() {
			return
		}
		p.heartbeatTick()
		p.after(hb.Interval, tick)
	}
	p.after(hb.Interval, tick)
}

// heartbeatTick is one detector pass: for every peer this proc currently
// has a channel to, check whether a beat (or beat ack) arrived since the
// last pass, count the miss otherwise, and declare the peer dead past the
// budget. A peer's first observation is all grace — monitoring starts with
// heard=true — so a freshly opened channel is never charged for silence
// that predates it.
func (p *Proc) heartbeatTick() {
	now := time.Duration(p.cfg.RT.Now())
	var last ProcID
	first := true
	for _, c := range p.channelsOrdered() {
		peer := c.peer
		if !first && peer == last {
			continue // one beat per peer, not per channel
		}
		first, last = false, peer
		if peer == p.cfg.ID {
			continue
		}
		if _, dead := p.deadPeers[peer]; dead {
			continue
		}
		hp := p.hbPeers[peer]
		if hp == nil {
			hp = &hbPeer{heard: true, lastHeard: now}
			p.hbPeers[peer] = hp
		}
		if hp.heard {
			hp.heard = false
			hp.misses = 0
			hp.lastHeard = now
		} else {
			hp.misses++
			p.markFail(fmt.Sprintf("beat-miss p%d n%d", peer, hp.misses))
			if hp.misses >= p.hbMisses {
				p.peerDead(peer, &PeerDeadError{
					Local: p.cfg.ID, Peer: peer,
					Missed: hp.misses, Elapsed: now - hp.lastHeard,
				})
				continue
			}
		}
		p.sendBeat(peer, 0)
	}
}

// sendBeat sends one heartbeat frame (word 0 = ping, 1 = ack) — the same
// route signaling takes, minus the marshalled SigMessage a beat doesn't
// need.
func (p *Proc) sendBeat(to ProcID, word uint32) {
	p.sendProcCtrl(to, tagSigBeat, nil, word)
}

// onBeat consumes one arriving heartbeat frame (scheduler domain, routed by
// onSigMsg). Any beat — ping or ack — proves the peer alive; pings are
// echoed unconditionally, so detection works even when only one side runs a
// detector, and acks are never re-echoed.
func (p *Proc) onBeat(from ProcID, word uint32) {
	if hp := p.hbPeers[from]; hp != nil {
		hp.heard = true
	}
	if word == 0 && !p.closing.Load() {
		p.sendBeat(from, 1)
	}
}

// PeerDead returns the death record for peer, or nil while the peer is
// considered alive. Call from a thread of this process (scheduler domain).
func (p *Proc) PeerDead(peer ProcID) *PeerDeadError { return p.deadPeers[peer] }

// peerDead is the fail-fast teardown sweep: record the death, then step
// every channel to the peer through the lifecycle table's peer-dead event —
// outstanding call setups fail with CausePeerDead, every other channel
// force-closes (parked and future sends fail with the typed error,
// error-control windows abandon, VC routes release) — and fail every
// receive waiter that can now never match. Scheduler domain; idempotent.
func (p *Proc) peerDead(peer ProcID, err *PeerDeadError) {
	if _, dead := p.deadPeers[peer]; dead {
		return
	}
	if p.deadPeers == nil {
		p.deadPeers = make(map[ProcID]*PeerDeadError)
	}
	p.deadPeers[peer] = err
	p.markFail(fmt.Sprintf("peer-dead p%d", peer))
	// Outstanding SETUPs toward the peer fail first, instead of burning
	// their whole retry budget, in call-reference order (never map order:
	// the determinism contract).
	var calls []*Channel
	for _, c := range p.channelsOrdered() {
		if c.peer == peer && c.state.Load() == chanOpening {
			calls = append(calls, c)
		}
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i].sigRef < calls[j].sigRef })
	for _, c := range calls {
		p.sigStep(c, evPeerDead, CausePeerDead)
	}
	// Then every channel still to the peer force-closes, static and
	// signaled alike.
	for _, c := range p.channelsOrdered() {
		if c.peer == peer {
			p.markFail(fmt.Sprintf("force-close ch%d>%d", c.id, peer))
			p.sigStep(c, evPeerDead, CausePeerDead)
		}
	}
	p.failDoomedWaiters()
	p.checkShutdownWake()
}

// failDoomedWaiters sweeps the parked receive waiters and fails every one
// whose pattern is now doomed; the woken receivers unwind with w.err in
// recvAnyOf. peerDead runs it once after all its finalizations, Close and
// finalizeChannel after theirs. In-place filter, scheduler domain: no timer
// can interleave between a waiter's append and its park.
func (p *Proc) failDoomedWaiters() {
	ws := p.waiters
	kept := ws[:0]
	for _, w := range ws {
		if err := p.doomed(&w.pat); err != nil {
			w.err = err
			p.wakeIfIdle(w.t.mt, "ncs recv")
			continue
		}
		kept = append(kept, w)
	}
	clear(ws[len(kept):])
	p.waiters = kept
}

// doomed reports why a receive pattern can never match, or nil while it
// still can. A source is doomed when its proc is dead, or when this end has
// closed the channel (proc, ch) — for an explicit channel, finalized out of
// the table counts too; a wildcard proc never is. The pattern is doomed when
// every source is, and the error is the first source's: the death record,
// else the channel's closedErr. The one predicate behind both the pre-park
// check and the sweep; both run it only once a peer died or a channel
// closed (Proc.chanCloses).
func (p *Proc) doomed(pat *recvPattern) error {
	var first error
	for _, a := range pat.from {
		if a.Proc == ProcID(Any) {
			return nil
		}
		var err error
		if pd := p.deadPeers[a.Proc]; pd != nil {
			err = pd
		} else if c := p.openChannel(a.Proc, pat.ch); c != nil && c.Closed() {
			err = c.closedErr()
		} else if c == nil && pat.ch != 0 {
			err = &ChannelClosedError{Local: p.cfg.ID, Peer: a.Proc, ID: pat.ch}
		} else {
			return nil
		}
		if first == nil {
			first = err
		}
	}
	return first
}
