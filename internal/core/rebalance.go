package core

import (
	"time"
)

// This file is the hot-lane rebalancer: the third layer of the adaptive
// lane scheduler. The peer hash that places channels on lanes knows
// nothing about traffic, so a skewed workload (or a skewed hash) can run
// one lane hot while the other engines idle. Every RebalanceInterval the
// proc compares per-lane load EWMAs and, when one lane is running more
// than twice as hot as the coldest, migrates one *idle-safe* channel from
// hot to cold through an engine-posted handoff. A sending thread also
// probes cheaply on its own (maybeSteal) so a freshly skewed burst does
// not have to wait for tick cadence.
//
// Safety rules, in order of importance:
//
//   - A channel moves only while BOTH lane locks are held (lockPair, in
//     index order), and only when idle-safe: nothing queued in the lane
//     scheduler, no pending piggyback control or flush-wheel entry, no
//     discipline-deferred or in-flight frames, not explicitly pinned.
//     Out-of-lock readers re-check the lane pointer after locking
//     (Channel.lockLane), so the swap is invisible to them.
//   - Only channels whose error control sequences data (go-back-N,
//     selective repeat) are eligible: an arriving frame racing the
//     handoff can be re-ordered across the old and new lanes' rings, and
//     a sequenced receiver repairs that (duplicate/gap handling) while an
//     unsequenced one would deliver out of order.
//   - The handoff itself runs on the *hot* lane's engine (posted through
//     its ring), so it serializes behind every arrival batch already
//     queued there.
//   - Ping-pong is damped three ways: the hysteresis factor (hot > 2x
//     cold), the absolute gap floor (rebalMinGap bytes), and a per-channel
//     cooldown of two ticks after a move. Migration also shifts half the
//     observed gap between the two EWMAs immediately, so the next tick
//     sees the move it just made.

// DefaultRebalanceInterval is the rebalance scan period when
// Config.RebalanceInterval is zero.
const DefaultRebalanceInterval = 2 * time.Millisecond

// rebalMinGap is the minimum hot-cold EWMA gap (bytes per interval) worth
// acting on; below it the imbalance is noise.
const rebalMinGap = 8192

// rebalCooldownTicks is how many ticks a migrated channel sits out before
// it may move again.
const rebalCooldownTicks = 2

// startRebalance resolves the rebalance cadence (none on a single lane).
// Under a discrete-event loop it starts it too: a self-rescheduling chain of
// virtual-timer events from time zero (a run's timeline includes them), which
// stops re-arming once the process starts closing, so a finished simulation's
// event queue drains instead of ticking forever. In real mode the cadence is
// a goroutine with a wall ticker, and it waits for something to balance
// (channelAdded).
func (p *Proc) startRebalance() {
	if p.rebalEvery <= 0 || len(p.lanes) < 2 {
		p.rebalEvery = 0
		return
	}
	if p.cfg.VirtualTime {
		var tick func()
		tick = func() {
			if p.closing.Load() {
				return
			}
			p.rebalanceTick()
			p.cfg.After(p.rebalEvery, tick)
		}
		p.cfg.After(p.rebalEvery, tick)
	}
}

// channelAdded runs when the channel table grows to n entries. The
// real-mode rebalancer starts with the proc's second channel: with fewer
// there is nothing to migrate, and a proc that never gets there — most of
// them: one peer, the default channel — is spared the goroutine and its
// ticker (a third of what building a multi-lane proc cost). rebalEvery is
// zero on a single lane, so there this is inert.
func (p *Proc) channelAdded(n int) {
	if n >= 2 && p.rebalEvery > 0 && !p.cfg.VirtualTime && !p.closing.Load() &&
		p.rebalOn.CompareAndSwap(false, true) {
		go p.rebalanceLoop()
	}
}

// rebalanceTick folds each lane's load accumulator into its EWMA and, if
// the spread warrants it, posts a migration to the hottest lane's engine.
func (p *Proc) rebalanceTick() {
	tick := p.rebalTick.Add(1)
	var hot, cold *lane
	var hotE, coldE int64
	for _, ln := range p.lanes {
		acc := ln.loadAcc.Swap(0)
		e := (ln.ewma.Load() + acc) / 2
		ln.ewma.Store(e)
		if hot == nil || e > hotE {
			hot, hotE = ln, e
		}
		if cold == nil || e < coldE {
			cold, coldE = ln, e
		}
	}
	if hot != cold && hotE > 2*coldE && hotE-coldE >= rebalMinGap {
		dst := cold
		src := hot
		p.statRingPush.Add(1)
		src.rx.Push(rxItem{fn: func() { src.migrateOne(dst, tick) }})
		src.kick()
	}
}

// lockPair takes two lane locks in index order (the process-wide lane
// lock order, so a concurrent pair cannot deadlock).
func lockPair(a, b *lane) {
	if a.idx < b.idx {
		a.mu.Lock()
		b.mu.Lock()
	} else {
		b.mu.Lock()
		a.mu.Lock()
	}
}

// idleSafeLocked reports whether the channel can change lanes right now;
// caller holds the channel's (current) lane lock. A channel in the
// signaled lifecycle may migrate only while fully OPEN (or static):
// mid-handshake and mid-teardown channels stay put, so the close path
// tears lane state down on exactly one lane.
func (c *Channel) idleSafeLocked(tick int64) bool {
	if st := c.state.Load(); st != chanStatic && st != chanOpen {
		return false
	}
	return !c.closed && !c.pinned &&
		c.errc.sequenced() &&
		c.sq.Size() == 0 && !c.inSched &&
		!c.flushOn && !c.inPend && !c.mustFlushOn &&
		!c.pendCreditOn && len(c.pendAcks) == 0 &&
		c.flow.queued() == 0 && c.errc.queued() == 0 &&
		c.errc.pending() == 0 &&
		tick-c.lastMoveTick >= rebalCooldownTicks
}

// migrateOne moves the busiest idle-safe channel of ln to dst. Runs on
// ln's engine goroutine (posted through the ring), holding no locks on
// entry.
func (ln *lane) migrateOne(dst *lane, tick int64) {
	if ln == dst {
		return
	}
	lockPair(ln, dst)
	var best *Channel
	var bestLoad int64
	for _, c := range ln.chans {
		if !c.idleSafeLocked(tick) {
			continue
		}
		if load := c.loadAcc.Load(); best == nil || load > bestLoad {
			best, bestLoad = c, load
		}
	}
	if best != nil {
		ln.moveLocked(best, dst, tick)
		ln.markDecision(best, "migrate")
	}
	dst.mu.Unlock()
	ln.mu.Unlock()
}

// moveLocked rehomes c from ln to dst; caller holds both locks and has
// verified idle-safety. Arrivals still sitting in ln's ring or rxq are
// re-routed by ln.processLocked the moment it sees the changed lane
// pointer.
func (ln *lane) moveLocked(c *Channel, dst *lane, tick int64) {
	c.lnp.Store(dst)
	for i, x := range ln.chans {
		if x == c {
			ln.chans[i] = ln.chans[len(ln.chans)-1]
			ln.chans[len(ln.chans)-1] = nil
			ln.chans = ln.chans[:len(ln.chans)-1]
			break
		}
	}
	dst.chans = append(dst.chans, c)
	c.lastMoveTick = tick
	c.loadAcc.Store(0)
	c.migrations.Add(1)
	ln.migratedOut++
	dst.migratedIn++
	// Reflect the move in the EWMAs immediately (half the observed gap)
	// so the next tick does not re-act on the imbalance this move just
	// corrected.
	if gap := ln.ewma.Load() - dst.ewma.Load(); gap > 0 {
		ln.ewma.Add(-gap / 2)
		dst.ewma.Add(gap / 2)
	}
}

// maybeSteal is the enqueue-time fast path: a sending thread that notices
// its own lane running far hotter than the coldest one moves its channel
// there directly, without waiting for tick cadence. Called outside any
// lane lock, on a sampled subset of sends (never with rebalancing off, which
// a single lane implies).
func (c *Channel) maybeSteal() {
	p := c.p
	ln := c.lnp.Load()
	if c.pinned {
		return
	}
	var cold *lane
	var coldE int64
	for _, l := range p.lanes {
		if e := l.ewma.Load(); cold == nil || e < coldE {
			cold, coldE = l, e
		}
	}
	if cold == ln || ln.ewma.Load() < 4*coldE+rebalMinGap {
		return
	}
	tick := p.rebalTick.Load()
	lockPair(ln, cold)
	if c.lnp.Load() == ln && c.idleSafeLocked(tick) {
		ln.moveLocked(c, cold, tick)
		ln.steals++
		ln.markDecision(c, "migrate")
	}
	cold.mu.Unlock()
	ln.mu.Unlock()
}

// LaneStats is one lane's scheduler snapshot.
type LaneStats struct {
	// Lane is the lane index and Channels how many channels it currently
	// serves.
	Lane     int
	Channels int
	// CtrlPiggybacked / CtrlStandalone count control words that rode data
	// frames vs standalone control frames sent by this lane's channels;
	// CtrlCoalesced is the subset of piggybacked words that rode a
	// *different* channel's frame. PiggyShare is
	// piggybacked/(piggybacked+standalone).
	CtrlPiggybacked int64
	CtrlStandalone  int64
	CtrlCoalesced   int64
	PiggyShare      float64
	// DRRRounds counts completed deficit-round-robin rounds of the lane's
	// send scheduler.
	DRRRounds int64
	// MigratedIn/MigratedOut count channels the rebalancer moved to/from
	// this lane; Steals is the subset of MigratedOut initiated by a
	// sending thread's enqueue-time probe.
	MigratedIn  int64
	MigratedOut int64
	Steals      int64
	// Load is the lane's current load EWMA (bytes per rebalance
	// interval).
	Load int64
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
			CtrlCoalesced:   ln.ctrlCoalescedL,
			DRRRounds:       ln.pending.rounds,
			MigratedIn:      ln.migratedIn,
			MigratedOut:     ln.migratedOut,
			Steals:          ln.steals,
			Load:            ln.ewma.Load(),
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
