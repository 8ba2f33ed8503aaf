package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/mts"
	"repro/internal/transport"
)

// TestShardedLaneChaos is the sharded-lanes chaos gauntlet: eight go-back-N
// channels spread (and partly pinned) across four forced lanes, 20% loss
// aimed at all of them — data and acks alike — with bidirectional traffic,
// over three seeds. Per-channel FIFO and exactly-once delivery must hold:
// go-back-N delivers in order without duplicates, so every receiver must
// see exactly the sequence 0..msgs-1 in its arrival tags.
func TestShardedLaneChaos(t *testing.T) {
	const nch, msgs = 8, 120
	for _, seed := range []int64{7, 42, 1995} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			mem := transport.NewMem()
			mem.SetDropRate(0.20, seed)
			mem.SetDropClass(func(m *transport.Message) bool { return m.Channel >= 1 })
			procs := shardedCluster(t, 2, mem, nil)
			chans := [2][]*Channel{}
			for side := 0; side < 2; side++ {
				peer := ProcID(1 - side)
				for i := 0; i < nch; i++ {
					cfg := ChannelConfig{
						ID:       ChannelID(i + 1),
						Priority: i % NumChannelPriorities,
						Lane:     i % 5, // 0 = peer-hash default, 1..4 explicit pins
						Error:    NewGoBackN(8, 25*time.Millisecond),
					}
					chans[side] = append(chans[side], procs[side].Open(peer, cfg))
				}
			}
			order := [2][][]int{}
			for side := 0; side < 2; side++ {
				order[side] = make([][]int, nch)
			}
			for side := 0; side < 2; side++ {
				side := side
				// Trailing-ack give-up after the peer exits (the final
				// cumulative ack raced the peer's shutdown) is expected
				// under loss, as in the selective-repeat tests.
				procs[side].OnException(func(error) {})
				for i := 0; i < nch; i++ {
					i := i
					c := chans[side][i]
					procs[side].TCreate(fmt.Sprintf("tx%d", i), mts.PrioDefault, func(th *Thread) {
						// The peer's rx threads interleave with its tx
						// threads: channel i's receiver is thread 2i+1.
						for k := 0; k < msgs; k++ {
							c.SendTagged(th, k, 2*i+1, []byte{byte(k)})
						}
					})
					procs[side].TCreate(fmt.Sprintf("rx%d", i), mts.PrioDefault, func(th *Thread) {
						for k := 0; k < msgs; k++ {
							m := recvMsg(th, c.id, Any, Any, ProcID(1-side))
							order[side][i] = append(order[side][i], m.Tag)
							m.Release()
						}
					})
				}
			}
			runReal(procs)
			if mem.Dropped() == 0 {
				t.Fatal("no loss injected — chaos proves nothing")
			}
			for side := 0; side < 2; side++ {
				for i := 0; i < nch; i++ {
					got := order[side][i]
					if len(got) != msgs {
						t.Fatalf("side %d channel %d: %d messages, want %d", side, i, len(got), msgs)
					}
					for k, tag := range got {
						if tag != k {
							t.Fatalf("side %d channel %d: position %d saw tag %d (FIFO/exactly-once broken)", side, i, k, tag)
						}
					}
				}
			}
		})
	}
}

// TestShardedPriorityChaosDispatch pins a low- and a high-priority channel
// to the same lane, stages one message on each in the lane's queue (low
// first), and services the queue once — exactly the staging the fan-out and
// retransmission paths perform. The high-priority message must reach the
// wire, and therefore the receiver, first.
func TestShardedPriorityChaosDispatch(t *testing.T) {
	mem := transport.NewMem()
	procs := shardedCluster(t, 2, mem, nil)
	low0 := procs[0].Open(1, ChannelConfig{ID: 1, Priority: 0, Lane: 2})
	high0 := procs[0].Open(1, ChannelConfig{ID: 2, Priority: 7, Lane: 2})
	low1 := procs[1].Open(0, ChannelConfig{ID: 1, Priority: 0, Lane: 2})
	high1 := procs[1].Open(0, ChannelConfig{ID: 2, Priority: 7, Lane: 2})
	if low0.laneOf() != high0.laneOf() {
		t.Fatal("test setup: channels must share a lane")
	}

	var order []string
	procs[0].TCreate("stager", mts.PrioDefault, func(th *Thread) {
		// Wait for both receivers' ready announcements. Each receiver
		// sends its announcement and parks in Recv within one dispatch
		// (the sharded send completes inline), and deliveries only happen
		// between dispatches — so once both announcements are here, both
		// receivers are parked and arrival order is wire order.
		th.Recv(Any, Any)
		th.Recv(Any, Any)
		// Stage low first, then high, then service once — the staging
		// shape of the fan-out and retransmission paths.
		ln := low0.lockLane()
		for toThread, c := range []*Channel{low0, high0} {
			m := ln.getDataMsg()
			m.From = 0
			m.To = 1
			m.FromThread = th.Idx()
			m.ToThread = toThread
			m.Tag = 0
			m.Channel = c.id
			req := ln.getReq()
			req.m = m
			req.ch = c
			ln.pending.push(req)
		}
		ln.serviceLocked()
		ln.mu.Unlock()
		ln.runDrain()
	})
	procs[1].TCreate("rlow", mts.PrioDefault, func(th *Thread) {
		th.Send(0, 0, nil)
		low1.Recv(th, Any)
		order = append(order, "low")
	})
	procs[1].TCreate("rhigh", mts.PrioDefault, func(th *Thread) {
		th.Send(0, 0, nil)
		high1.Recv(th, Any)
		order = append(order, "high")
	})
	runReal(procs)
	if len(order) != 2 || order[0] != "high" {
		t.Fatalf("arrival order = %v, want high first", order)
	}
}
