package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mts"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ---------------------------------------------------------------------------
// DRR scheduler unit tests (laneSched, drr.go)

func drrChan(prio, weight int) *Channel {
	return &Channel{priority: prio, weight: weight, flow: NoFlowControl{}, errc: NoErrorControl{}}
}

func drrReq(c *Channel, tag, size int) *sendReq {
	return &sendReq{m: &transport.Message{Tag: tag, Data: make([]byte, size)}, ch: c}
}

// TestLaneSchedWeightedService checks the deficit-round-robin core: two
// equal-priority channels with weights 3 and 1 and quantum-sized frames
// must interleave 3:1, FIFO within each channel.
func TestLaneSchedWeightedService(t *testing.T) {
	var s laneSched
	size := drrQuantum - wire.HeaderSize // reqCost == drrQuantum exactly
	c3 := drrChan(4, 3)
	c1 := drrChan(4, 1)
	for k := 0; k < 8; k++ {
		s.push(drrReq(c3, k, size))
	}
	for k := 0; k < 8; k++ {
		s.push(drrReq(c1, k, size))
	}
	var pattern []*Channel
	next := map[*Channel]int{}
	for !s.empty() {
		req := s.pop()
		if req.m.Tag != next[req.ch] {
			t.Fatalf("FIFO broken: channel served tag %d, want %d", req.m.Tag, next[req.ch])
		}
		next[req.ch]++
		pattern = append(pattern, req.ch)
	}
	if next[c3] != 8 || next[c1] != 8 {
		t.Fatalf("served %d/%d, want 8/8", next[c3], next[c1])
	}
	// First two full rounds: three c3 frames per one c1 frame.
	want := []*Channel{c3, c3, c3, c1, c3, c3, c3, c1}
	for i, c := range want {
		if pattern[i] != c {
			t.Fatalf("position %d served weight-%d channel, want weight-%d (pattern %v)",
				i, pattern[i].weight, c.weight, pattern[:8])
		}
	}
	if s.rounds == 0 {
		t.Fatal("no completed DRR rounds counted")
	}
}

// TestLaneSchedControlFirst checks the strict control band: control pops
// before any queued data regardless of backlog.
func TestLaneSchedControlFirst(t *testing.T) {
	var s laneSched
	c := drrChan(7, 1)
	for k := 0; k < 4; k++ {
		s.push(drrReq(c, k, 16))
	}
	ctrl := &sendReq{m: &transport.Message{Tag: tagFlowAck}, ctrl: true}
	s.push(ctrl)
	if got := s.pop(); got != ctrl {
		t.Fatal("control did not pop before queued data")
	}
	if got := s.pop(); got.m.Tag != 0 {
		t.Fatalf("data resumed at tag %d, want 0", got.m.Tag)
	}
}

// TestLaneSchedPriorityPreemption checks that a freshly-backlogged
// higher-priority channel takes the cursor immediately — the property that
// keeps the sharded dispatch test's strict-priority expectations intact.
func TestLaneSchedPriorityPreemption(t *testing.T) {
	var s laneSched
	low := drrChan(0, 1)
	high := drrChan(7, 1)
	s.push(drrReq(low, 0, 16))
	s.push(drrReq(low, 1, 16))
	if got := s.pop(); got.ch != low {
		t.Fatal("lone low-priority channel not served")
	}
	s.push(drrReq(high, 0, 16))
	if got := s.pop(); got.ch != high {
		t.Fatal("high-priority newcomer did not preempt the round")
	}
	if got := s.pop(); got.ch != low || got.m.Tag != 1 {
		t.Fatal("low-priority backlog lost after preemption")
	}
}

// TestLaneSchedOversizedFrame checks the boost escalation: a frame far
// larger than quantum·weight must still be served (in one pop call — the
// deficit accumulates geometrically, not linearly).
func TestLaneSchedOversizedFrame(t *testing.T) {
	var s laneSched
	c := drrChan(0, 1)
	s.push(drrReq(c, 0, 1<<20))
	if got := s.pop(); got.ch != c {
		t.Fatal("oversized frame never served")
	}
	if !s.empty() {
		t.Fatal("scheduler not empty after draining")
	}
}

// gateFlow is a flow discipline whose gate a test opens and shuts by hand.
type gateFlow struct {
	NoFlowControl
	open bool
}

func (g *gateFlow) admit(*transport.Message) bool { return g.open }

// TestLaneSchedGatedHead checks admission at the head of a channel's queue:
// a refused head takes its channel out of the ring with the queue intact, so
// other channels are served and the lane reads empty rather than busy; a send
// queued behind the gated head keeps it out; a retransmission bypasses the
// gate; and once the discipline reopens the channel it drains in FIFO order.
func TestLaneSchedGatedHead(t *testing.T) {
	var s laneSched
	gate := &gateFlow{}
	shut := drrChan(7, 1)
	shut.flow = gate
	open := drrChan(0, 1)
	s.push(drrReq(shut, 0, 16))
	s.push(drrReq(shut, 1, 16))
	s.push(drrReq(open, 0, 16))
	if got := s.pop(); got == nil || got.ch != open {
		t.Fatal("open channel not served past the gated one")
	}
	if got := s.pop(); got != nil {
		t.Fatalf("gated head left: tag %d", got.m.Tag)
	}
	if !s.empty() || shut.inSched || shut.sq.Size() != 2 {
		t.Fatalf("gated channel: empty()=%v inSched=%v queued=%d, want true false 2", s.empty(), shut.inSched, shut.sq.Size())
	}
	s.push(drrReq(shut, 2, 16))
	if !s.empty() {
		t.Fatal("a send behind a gated head put the channel back in the ring")
	}
	raw := drrReq(shut, 9, 16)
	raw.raw = true
	s.push(raw)
	if got := s.pop(); got != raw {
		t.Fatal("retransmission waited behind the gated head")
	}
	if got := s.pop(); got != nil || !s.empty() {
		t.Fatal("gated head left with the retransmission")
	}
	gate.open = true
	s.ready(shut) // what Channel.reopen does
	for k := 0; k < 3; k++ {
		if got := s.pop(); got == nil || got.m.Tag != k {
			t.Fatalf("pop %d after reopen: %v, want tag %d", k, got, k)
		}
	}
	if !s.empty() {
		t.Fatal("scheduler not empty after draining")
	}
}

// ---------------------------------------------------------------------------
// One flush timer per lane (256 idle channels ≠ 256 timers)

// TestFlushWheelTimerCount opens 255 reliable channels (every usable ID)
// spread over four lanes, pushes one message through each (so all 255
// receiver ends queue an acknowledgement inside the same piggyback
// window), and asserts the armed flush-timer count never exceeds the lane
// count: the per-lane wheel serves every waiting channel with one timer.
func TestFlushWheelTimerCount(t *testing.T) {
	const nch = 255
	mem := transport.NewMem()
	procs := shardedCluster(t, 2, mem, nil)
	tx := make([]*Channel, nch)
	for i := 0; i < nch; i++ {
		mk := func() ChannelConfig {
			return ChannelConfig{
				ID:    ChannelID(i + 1),
				Lane:  i%4 + 1, // spread explicitly over all four lanes
				Error: NewGoBackN(4, 50*time.Millisecond),
			}
		}
		tx[i] = procs[0].Open(1, mk())
		procs[1].Open(0, mk())
	}
	var maxTimers atomic.Int64
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := procs[1].flushTimers.Load(); n > maxTimers.Load() {
				maxTimers.Store(n)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}()
	procs[0].TCreate("tx", mts.PrioDefault, func(th *Thread) {
		for i := 0; i < nch; i++ {
			tx[i].SendTagged(th, 0, 0, []byte{byte(i)})
		}
	})
	procs[1].TCreate("rx", mts.PrioDefault, func(th *Thread) {
		for i := 0; i < nch; i++ {
			m := recvMsg(th, ChannelID(i+1), Any, Any, 0)
			m.Release()
		}
	})
	runReal(procs)
	close(stop)
	if got := maxTimers.Load(); got > 4 {
		t.Fatalf("observed %d armed flush timers for %d channels, want <= 4 (one per lane)", got, nch)
	}
	if maxTimers.Load() == 0 {
		t.Fatal("flush wheel never armed — the ack path did not engage")
	}
	// Every channel's ack must have flushed (no reverse data to ride here).
	for i := 0; i < nch; i++ {
		cs, _ := procs[1].lookupChannel(0, ChannelID(i+1))
		st := cs.Stats()
		if st.CtrlPiggybacked+st.CtrlStandalone == 0 {
			t.Fatalf("channel %d never sent its ack", i+1)
		}
	}
}

// ---------------------------------------------------------------------------
// Control stays on its own channel

// TestControlStaysOnItsChannel runs data one way on a reliable channel and
// unrelated reverse traffic on a *sibling* channel to the same peer. Per-channel
// QoS means the sibling's frames carry none of the reliable channel's
// acknowledgements: with no reverse data of its own, every ack of channel 1
// leaves standalone off the flush wheel (cumulative, so at most one per
// message), and the sender's window of 8 lets all 200 messages through only
// if they land.
func TestControlStaysOnItsChannel(t *testing.T) {
	const msgs = 200
	mem := transport.NewMem()
	// An observer, not a fault: every frame is offered for dropping so the
	// class hook sees it, and the hook declines them all.
	var foreign atomic.Int64
	mem.SetDropEvery(1)
	mem.SetDropClass(func(m *transport.Message) bool {
		if m.Channel == 2 && m.Tag >= 0 && (m.HasAck || m.HasCredit) {
			foreign.Add(1)
		}
		return false
	})
	procs := make([]*Proc, 2)
	for i := 0; i < 2; i++ {
		rt := mts.New(mts.Config{Name: fmt.Sprintf("node%d", i), IdleTimeout: 10 * time.Second})
		procs[i] = New(Config{
			ID: ProcID(i), RT: rt, Endpoint: mem.Attach(ProcID(i), rt),
			SendLanes: 4, RecvLanes: 4,
		})
	}
	a0 := procs[0].Open(1, ChannelConfig{ID: 1, Error: NewGoBackN(8, 50*time.Millisecond)})
	a1 := procs[1].Open(0, ChannelConfig{ID: 1, Error: NewGoBackN(8, 50*time.Millisecond)})
	procs[0].Open(1, ChannelConfig{ID: 2})
	b1 := procs[1].Open(0, ChannelConfig{ID: 2})

	procs[0].OnException(func(error) {}) // trailing-ack give-up after peer exit
	procs[1].OnException(func(error) {})
	procs[0].TCreate("txA", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < msgs; k++ {
			a0.SendTagged(th, k, 0, []byte{byte(k)})
		}
	})
	procs[0].TCreate("rxB", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < msgs; k++ {
			m := recvMsg(th, 2, Any, Any, 1)
			m.Release()
		}
	})
	procs[1].TCreate("fwd", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < msgs; k++ {
			m := recvMsg(th, 1, Any, Any, 0)
			m.Release()
			// Reverse data on the *other* channel, queued right behind the
			// ack the arrival above produced.
			b1.SendTagged(th, k, 1, []byte{byte(k)})
		}
	})
	runReal(procs)

	if n := foreign.Load(); n != 0 {
		t.Fatalf("%d channel-2 data frames carried a control word: channel 2 runs no flow or error control", n)
	}
	st := a1.Stats()
	if st.Received != msgs {
		t.Fatalf("channel 1 delivered %d of %d messages", st.Received, msgs)
	}
	if st.CtrlPiggybacked != 0 || st.CtrlStandalone <= 0 || st.CtrlStandalone > msgs {
		t.Fatalf("channel 1's receiver end sent %d acks piggybacked and %d standalone, want 0 and 1..%d",
			st.CtrlPiggybacked, st.CtrlStandalone, msgs)
	}
	if dropped := mem.Dropped(); dropped != 0 {
		t.Fatalf("the observer dropped %d frames", dropped)
	}
}

// ---------------------------------------------------------------------------
// Chaos: DRR weights under loss

// TestAdaptiveChaosLossy drives a priority (weight 6) and a bulk
// (weight 2) class — same priority level, so the weighted scheduler, not
// strict priority, shares the lane (both channels go to the one peer, so the
// peer hash co-locates them) — through 20% frame loss over three seeds.
// Go-back-N must deliver each class exactly-once in order, and the bulk class
// must keep at least half its weight share while the priority class saturates
// (the DRR starvation bound). A plain goroutine reads LaneStats and
// Channel.Stats throughout: the -race coverage of those readers against live
// lane engines.
func TestAdaptiveChaosLossy(t *testing.T) {
	const msgs = 150
	for _, seed := range []int64{3, 41, 2026} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			mem := transport.NewMem()
			mem.SetDropRate(0.20, seed)
			mem.SetDropClass(func(m *transport.Message) bool { return m.Channel >= 1 })
			procs := make([]*Proc, 2)
			for i := 0; i < 2; i++ {
				rt := mts.New(mts.Config{Name: fmt.Sprintf("node%d", i), IdleTimeout: 10 * time.Second})
				procs[i] = New(Config{
					ID: ProcID(i), RT: rt, Endpoint: mem.Attach(ProcID(i), rt),
					SendLanes: 4, RecvLanes: 4,
				})
				procs[i].OnException(func(error) {})
			}
			mkCfg := func(id ChannelID, weight int) ChannelConfig {
				return ChannelConfig{
					ID: id, Priority: 5, Weight: weight,
					Error: NewGoBackN(8, 25*time.Millisecond),
				}
			}
			// arrivals interleaves both channels' tags per side; every
			// append runs in that side's scheduler domain (one thread at a
			// time), so the slice needs no lock.
			arrivals := [2][]ChannelID{}
			var chans []*Channel
			for side := 0; side < 2; side++ {
				side := side
				peer := ProcID(1 - side)
				prio := procs[side].Open(peer, mkCfg(1, 6))
				bulk := procs[side].Open(peer, mkCfg(2, 2))
				chans = append(chans, prio, bulk)
				for ci, c := range []*Channel{prio, bulk} {
					ci, c := ci, c
					procs[side].TCreate(fmt.Sprintf("tx%d", ci), mts.PrioDefault, func(th *Thread) {
						for k := 0; k < msgs; k++ {
							c.SendTagged(th, k, 2*ci+1, []byte{byte(k)})
						}
					})
					procs[side].TCreate(fmt.Sprintf("rx%d", ci), mts.PrioDefault, func(th *Thread) {
						for k := 0; k < msgs; k++ {
							m := recvMsg(th, c.id, k, Any, peer)
							arrivals[side] = append(arrivals[side], m.Channel)
							m.Release()
						}
					})
				}
			}
			stop, stopped := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(stopped)
				for {
					select {
					case <-stop:
						return
					default:
					}
					procs[0].LaneStats()
					procs[1].LaneStats()
					for _, c := range chans {
						c.Stats()
					}
					time.Sleep(100 * time.Microsecond)
				}
			}()
			runReal(procs)
			close(stop)
			<-stopped
			if mem.Dropped() == 0 {
				t.Fatal("no loss injected — chaos proves nothing")
			}
			for side := 0; side < 2; side++ {
				got := arrivals[side]
				var nPrio, nBulk, bulkAtPrioDone int
				for _, ch := range got {
					if ch == 1 {
						nPrio++
						if nPrio == msgs {
							bulkAtPrioDone = nBulk
						}
					} else {
						nBulk++
					}
				}
				// recvMsg(k) enforces in-order tags; counts prove
				// exactly-once on top.
				if nPrio != msgs || nBulk != msgs {
					t.Fatalf("side %d: %d prio + %d bulk arrivals, want %d each", side, nPrio, nBulk, msgs)
				}
				// Starvation bound: by the time the priority class finished,
				// bulk must have kept at least half its weight share
				// (weight 2 of 8 → a quarter share → bound msgs/8).
				if bulkAtPrioDone < msgs/8 {
					t.Fatalf("side %d: bulk starved — only %d of %d delivered when the priority class finished (bound %d)",
						side, bulkAtPrioDone, msgs, msgs/8)
				}
				t.Logf("side %d: bulk had %d/%d through when prio finished", side, bulkAtPrioDone, msgs)
			}
		})
	}
}
