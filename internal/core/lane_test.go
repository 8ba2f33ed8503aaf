package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mts"
	"repro/internal/transport"
)

// shardedCluster builds n NCS processes over the Mem transport with four
// send/recv lanes each — the sharded hot path, regardless of GOMAXPROCS.
func shardedCluster(t *testing.T, n int, net *transport.Mem, mk func(i int) (FlowControl, ErrorControl)) []*Proc {
	t.Helper()
	procs := make([]*Proc, n)
	for i := 0; i < n; i++ {
		rt := mts.New(mts.Config{Name: fmt.Sprintf("node%d", i), IdleTimeout: 10 * time.Second})
		ep := net.Attach(ProcID(i), rt)
		var fc FlowControl
		var ec ErrorControl
		if mk != nil {
			fc, ec = mk(i)
		}
		procs[i] = New(Config{
			ID: ProcID(i), RT: rt, Endpoint: ep,
			Flow: fc, Error: ec,
			SendLanes: 4, RecvLanes: 4,
		})
	}
	return procs
}

func TestShardedEngages(t *testing.T) {
	net := transport.NewMem()
	procs := shardedCluster(t, 1, net, nil)
	if procs[0].Lanes() != 4 {
		t.Fatalf("Lanes() = %d, want 4", procs[0].Lanes())
	}
	procs[0].TCreate("noop", mts.PrioDefault, func(th *Thread) {})
	runReal(procs)
	// What a lane count of 1 selects is TestEngineMatrix's "driver" scenario.
}

func TestShardedRoundTrip(t *testing.T) {
	const msgs = 200
	net := transport.NewMem()
	procs := shardedCluster(t, 2, net, nil)
	var got [msgs]string
	procs[0].TCreate("sender", mts.PrioDefault, func(th *Thread) {
		for i := 0; i < msgs; i++ {
			th.SendTagged(i, 0, 1, []byte(fmt.Sprintf("msg-%d", i)))
		}
	})
	procs[1].TCreate("receiver", mts.PrioDefault, func(th *Thread) {
		for i := 0; i < msgs; i++ {
			data, _ := th.RecvTagged(i, Any, 0)
			got[i] = string(data)
		}
	})
	runReal(procs)
	for i := 0; i < msgs; i++ {
		if got[i] != fmt.Sprintf("msg-%d", i) {
			t.Fatalf("msg %d: got %q", i, got[i])
		}
	}
	if procs[0].Sent() != msgs || procs[1].Received() != msgs {
		t.Fatalf("counters: sent=%d recv=%d", procs[0].Sent(), procs[1].Received())
	}
}

// TestShardedChannelFIFO opens many channels (spread across lanes, two
// pinned to the same lane explicitly) and checks per-channel FIFO when all
// of them blast concurrently from sibling threads.
func TestShardedChannelFIFO(t *testing.T) {
	const nch, msgs = 8, 100
	net := transport.NewMem()
	procs := shardedCluster(t, 2, net, nil)
	tx := make([]*Channel, nch)
	rx := make([]*Channel, nch)
	for i := 0; i < nch; i++ {
		cfg := ChannelConfig{ID: ChannelID(i + 1), Priority: i % NumChannelPriorities, Lane: i % 5}
		tx[i] = procs[0].Open(1, cfg)
		rx[i] = procs[1].Open(0, cfg)
	}
	order := make([][]int, nch)
	for i := 0; i < nch; i++ {
		i := i
		procs[0].TCreate(fmt.Sprintf("tx%d", i), mts.PrioDefault, func(th *Thread) {
			for k := 0; k < msgs; k++ {
				tx[i].SendTagged(th, k, i, nil)
			}
		})
		procs[1].TCreate(fmt.Sprintf("rx%d", i), mts.PrioDefault, func(th *Thread) {
			for k := 0; k < msgs; k++ {
				m := recvMsg(th, tx[i].id, Any, Any, 0)
				order[i] = append(order[i], m.Tag)
				m.Release()
			}
		})
	}
	runReal(procs)
	for i := 0; i < nch; i++ {
		for k, tag := range order[i] {
			if tag != k {
				t.Fatalf("channel %d: position %d saw tag %d (FIFO broken)", i, k, tag)
			}
		}
	}
}

// TestShardedLanePinning checks the ChannelConfig.Lane override and the
// default peer-hash placement, and that both are for life: a few thousand
// sends later each channel reports the lane it was opened on.
func TestShardedLanePinning(t *testing.T) {
	net := transport.NewMem()
	procs := shardedCluster(t, 2, net, nil)
	p := procs[0]
	pinned := p.Open(1, ChannelConfig{ID: 1, Lane: 3})
	if want := p.lanes[(3-1)%4]; pinned.laneOf() != want {
		t.Fatalf("Lane:3 pinned to lane %d, want %d", pinned.laneOf().idx, want.idx)
	}
	hashed := p.Open(1, ChannelConfig{ID: 2})
	if want := p.lanes[1%4]; hashed.laneOf() != want {
		t.Fatalf("default pin landed on lane %d, want peer-hash lane %d", hashed.laneOf().idx, want.idx)
	}
	wrap := p.Open(1, ChannelConfig{ID: 3, Lane: 6})
	if want := p.lanes[(6-1)%4]; wrap.laneOf() != want {
		t.Fatalf("Lane:6 pinned to lane %d, want %d", wrap.laneOf().idx, want.idx)
	}
	const msgs = 2000
	for ti, c := range []*Channel{pinned, hashed} {
		ti, c := ti, c
		before := c.Stats().Lane
		if before != c.laneOf().idx {
			t.Fatalf("channel %d: Stats().Lane = %d, want %d", c.id, before, c.laneOf().idx)
		}
		procs[1].Open(0, ChannelConfig{ID: c.id})
		procs[0].TCreate(fmt.Sprintf("tx%d", ti), mts.PrioDefault, func(th *Thread) {
			payload := make([]byte, 4096)
			for k := 0; k < msgs; k++ {
				c.SendTagged(th, k, ti, payload)
			}
			if after := c.Stats().Lane; after != before {
				t.Errorf("channel %d moved from lane %d to lane %d", c.id, before, after)
			}
		})
		procs[1].TCreate(fmt.Sprintf("rx%d", ti), mts.PrioDefault, func(th *Thread) {
			for k := 0; k < msgs; k++ {
				recvMsg(th, c.id, k, Any, 0).Release()
			}
		})
	}
	runReal(procs)
}

// TestShardedCollectives drives the whole Group suite (dissemination
// barrier, tree bcast/gather/reduce, pairwise all-to-all) over sharded
// procs, exercising the fan-batched sharded send path.
func TestShardedCollectives(t *testing.T) {
	const n = 4
	net := transport.NewMem()
	procs := shardedCluster(t, n, net, nil)
	members := make([]Addr, n)
	for i := range members {
		members[i] = Addr{Proc: ProcID(i), Thread: 0}
	}
	results := make([][][]byte, n)
	sums := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		procs[i].TCreate("member", mts.PrioDefault, func(th *Thread) {
			g := procs[i].NewGroup(members, GroupConfig{})
			for round := 0; round < 5; round++ {
				g.Barrier(th)
			}
			data := g.Bcast(th, 0, []byte("payload"))
			if string(data) != "payload" {
				t.Errorf("member %d: bcast got %q", i, data)
			}
			gathered := g.Gather(th, 0, []byte{byte(i)})
			if i == 0 {
				results[0] = gathered
			}
			red := g.Reduce(th, 0, []byte{byte(i)}, func(acc, next []byte) []byte {
				return []byte{acc[0] + next[0]}
			})
			if i == 0 {
				sums[0] = int(red[0])
			}
			g.Barrier(th)
		})
	}
	runReal(procs)
	if len(results[0]) != n {
		t.Fatalf("gather returned %d entries", len(results[0]))
	}
	for i := 0; i < n; i++ {
		if len(results[0][i]) != 1 || results[0][i][0] != byte(i) {
			t.Fatalf("gather[%d] = %v", i, results[0][i])
		}
	}
	if sums[0] != 0+1+2+3 {
		t.Fatalf("reduce sum = %d", sums[0])
	}
}

// TestShardedStatsRace hammers ChannelStats and the proc-global counters
// from an outside goroutine while eight channels blast concurrently across
// four lanes — the counter-atomicity satellite; run under -race.
func TestShardedStatsRace(t *testing.T) {
	const nch, msgs = 8, 200
	net := transport.NewMem()
	procs := shardedCluster(t, 2, net, nil)
	chans := make([]*Channel, nch)
	peers := make([]*Channel, nch)
	for i := 0; i < nch; i++ {
		cfg := ChannelConfig{ID: ChannelID(i + 1), Priority: i % NumChannelPriorities}
		chans[i] = procs[0].Open(1, cfg)
		peers[i] = procs[1].Open(0, cfg)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var sink int64
		for !stop.Load() {
			for i := 0; i < nch; i++ {
				s := chans[i].Stats()
				r := peers[i].Stats()
				sink += s.Sent + s.BytesSent + s.CtrlPiggybacked + s.CtrlStandalone
				sink += r.Received + r.BytesReceived
			}
			sink += procs[0].Sent() + procs[1].Received()
		}
		_ = sink
	}()
	payload := make([]byte, 64)
	for i := 0; i < nch; i++ {
		i := i
		procs[0].TCreate(fmt.Sprintf("tx%d", i), mts.PrioDefault, func(th *Thread) {
			for k := 0; k < msgs; k++ {
				chans[i].Send(th, i, payload)
			}
		})
		procs[1].TCreate(fmt.Sprintf("rx%d", i), mts.PrioDefault, func(th *Thread) {
			buf := make([]byte, 64)
			for k := 0; k < msgs; k++ {
				peers[i].RecvInto(th, buf, Any)
			}
		})
	}
	runReal(procs)
	stop.Store(true)
	wg.Wait()
	var sent, recv int64
	for i := 0; i < nch; i++ {
		sent += chans[i].Stats().Sent
		recv += peers[i].Stats().Received
	}
	if sent != nch*msgs || recv != nch*msgs {
		t.Fatalf("channel stats: sent=%d recv=%d want %d", sent, recv, nch*msgs)
	}
	if procs[0].Sent() != nch*msgs || procs[1].Received() != nch*msgs {
		t.Fatalf("proc counters: sent=%d recv=%d", procs[0].Sent(), procs[1].Received())
	}
}

// TestShardedWindowedFlow runs windowed flow control (deferred senders,
// credit advertisements) over the sharded path: the gated-send wakeup must
// survive lanes.
func TestShardedWindowedFlow(t *testing.T) {
	const msgs = 300
	net := transport.NewMem()
	procs := shardedCluster(t, 2, net, func(i int) (FlowControl, ErrorControl) {
		return NewWindowFlow(4), nil
	})
	tx := procs[0].Open(1, ChannelConfig{ID: 1, Flow: NewWindowFlow(4)})
	rx := procs[1].Open(0, ChannelConfig{ID: 1, Flow: NewWindowFlow(4)})
	var got int
	procs[0].TCreate("tx", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < msgs; k++ {
			tx.SendTagged(th, k, 0, []byte("x"))
		}
	})
	procs[1].TCreate("rx", mts.PrioDefault, func(th *Thread) {
		buf := make([]byte, 8)
		for k := 0; k < msgs; k++ {
			rx.RecvInto(th, buf, Any)
			got++
		}
	})
	runReal(procs)
	if got != msgs {
		t.Fatalf("received %d/%d", got, msgs)
	}
}
