package core

import (
	"testing"
	"time"

	"repro/internal/mts"
	"repro/internal/transport"
)

// TestWindowedFlowAllocs pins steady-state heap allocations of the full
// NCS windowed-flow path — Send through admission, Mem wire crossing,
// delivery, cumulative-credit advertisement, and credit consumption — so
// regressions in the control-message path (the old putUint32 allocated a
// fresh slice per credit/ack) or the request/waiter freelists fail loudly.
// The absolute-credit protocol adds a 4-byte cumulative payload to every
// advertisement and a periodic window-sync timer; both must ride the
// pooled control path, keeping the lossless-path overhead at zero extra
// allocations per round.
//
// Both procs share one runtime so the measurement covers exactly one
// send/recv/credit cycle per round with no cross-goroutine noise beyond
// the Mem Post hand-off. The Mem wire crossing itself inherently allocates
// (one marshal frame + one decoded Message per direction); everything the
// core adds on top must come from the freelists.
func TestWindowedFlowAllocs(t *testing.T) {
	mem := transport.NewMem()
	rt := mts.New(mts.Config{Name: "alloc", IdleTimeout: 5 * time.Second})
	mk := func(id ProcID) *Proc {
		return New(Config{
			ID:       id,
			RT:       rt,
			Endpoint: mem.Attach(id, rt),
			Flow:     NewWindowFlow(2),
		})
	}
	pa, pb := mk(0), mk(1)

	payload := make([]byte, 4096)
	cmds := 0
	stop := false
	rounds := 0
	roundDone := make(chan struct{})
	runDone := make(chan struct{})

	var sender *Thread
	sender = pa.TCreate("sender", mts.PrioDefault, func(th *Thread) {
		for {
			for cmds == 0 && !stop {
				th.mt.Park("await cmd")
			}
			if stop {
				// Zero-length sentinel releases the receiver.
				th.Send(0, 1, nil)
				return
			}
			cmds--
			th.Send(0, 1, payload)
		}
	})
	pb.TCreate("recv", mts.PrioDefault, func(th *Thread) {
		for {
			data, _ := th.Recv(Any, 0)
			if len(data) == 0 {
				return // sentinel: shut down
			}
			rounds++
			roundDone <- struct{}{}
		}
	})
	go func() { rt.Run(); close(runDone) }()

	kick := func() {
		cmds++
		if sender.mt.State() == mts.StateBlocked && sender.mt.BlockReason() == "await cmd" {
			rt.Unblock(sender.mt, false)
		}
	}
	// Warm the freelists and the window machinery.
	for i := 0; i < 4; i++ {
		rt.Post(kick)
		<-roundDone
	}
	avg := testing.AllocsPerRun(200, func() {
		rt.Post(kick)
		<-roundDone
	})

	// Tear down: the sender emits the sentinel and exits, the receiver
	// consumes it and exits, both procs close their system threads.
	rt.Post(func() {
		stop = true
		if sender.mt.State() == mts.StateBlocked && sender.mt.BlockReason() == "await cmd" {
			rt.Unblock(sender.mt, false)
		}
	})
	<-runDone

	t.Logf("windowed-flow 4KB round: %.1f allocs/op over %d rounds", avg, rounds)
	// Baseline with pooled control/data messages and the pooled decode
	// path: ~3 (the kept payload's frame, whose ownership Recv hands to
	// the application, plus scheduler hand-off). The pre-refactor path
	// allocated a fresh credit Message, its 4-byte payload, and a sendReq
	// per ack on top of that; the pin's headroom covers the race
	// detector's deliberately leaky sync.Pool.
	if avg > 9 {
		t.Fatalf("windowed-flow round allocates %.1f/op, want <= 9", avg)
	}

	// Protocol bookkeeping must have stayed consistent across the run:
	// every data message (4 warmup + measured rounds + the sentinel) was
	// admitted and delivered, and the cumulative counters agree to within
	// the credits still in flight at teardown.
	sflow := pa.DefaultChannel(1).Flow().(*WindowFlow)
	rflow := pb.DefaultChannel(0).Flow().(*WindowFlow)
	wantMsgs := uint32(rounds) + 1 // + zero-length sentinel
	if sflow.sent != wantMsgs || rflow.delivered != wantMsgs {
		t.Fatalf("counter drift: sent %d, delivered %d, want %d", sflow.sent, rflow.delivered, wantMsgs)
	}
	if out := sflow.Outstanding(); out < 0 || out > 2 {
		t.Fatalf("outstanding %d beyond window at teardown", out)
	}
}

// TestCollectiveAllocs pins the collective hot path: a 4-member group on
// one shared runtime runs a dissemination barrier plus a binomial
// BcastInto per round. Steady state must stay on the freelists end to end —
// fan-out enqueues recycle sendReqs and pooled data Messages, barrier
// tokens and BcastInto payloads release their pooled frames via RecvInto
// semantics, and the precomputed topology/scratch slices never regrow — so
// the whole 4-process round (8 barrier tokens + 3 broadcast hops) is
// pinned to a near-zero allocation budget.
func TestCollectiveAllocs(t *testing.T) {
	const n = 4
	mem := transport.NewMem()
	rt := mts.New(mts.Config{Name: "collalloc", IdleTimeout: 5 * time.Second})
	procs := make([]*Proc, n)
	for i := 0; i < n; i++ {
		procs[i] = New(Config{ID: ProcID(i), RT: rt, Endpoint: mem.Attach(ProcID(i), rt)})
	}
	members := make([]Addr, n)
	for i := range members {
		members[i] = Addr{Proc: ProcID(i), Thread: 0}
	}

	payload := make([]byte, 4096)
	cmds := 0
	stop := false
	// reduce makes a round end in a Reduce; the root announces it in the
	// broadcast's first byte. The fold is in place, so it must add nothing.
	reduce := false
	sum := func(acc, next []byte) []byte {
		acc[0] += next[0]
		return acc
	}
	rounds := 0
	roundDone := make(chan struct{})
	runDone := make(chan struct{})

	var root *Thread
	root = procs[0].TCreate("root", mts.PrioDefault, func(th *Thread) {
		g := procs[0].NewGroup(members, GroupConfig{})
		buf := make([]byte, len(payload))
		copy(buf, payload)
		own := make([]byte, 1)
		for {
			for cmds == 0 && !stop {
				th.mt.Park("await cmd")
			}
			g.Barrier(th)
			if stop {
				g.BcastInto(th, 0, buf[:0]) // zero-length sentinel
				return
			}
			cmds--
			buf[0] = 0
			if reduce {
				buf[0] = 1
			}
			g.BcastInto(th, 0, buf)
			if buf[0] == 1 {
				own[0] = 1
				if red := g.Reduce(th, 0, own, sum); red[0] != n {
					t.Errorf("reduce = %d, want %d", red[0], n)
				}
			}
		}
	})
	for i := 1; i < n; i++ {
		i := i
		procs[i].TCreate("leaf", mts.PrioDefault, func(th *Thread) {
			g := procs[i].NewGroup(members, GroupConfig{})
			buf := make([]byte, len(payload))
			own := make([]byte, 1)
			for {
				g.Barrier(th)
				ln := g.BcastInto(th, 0, buf)
				if ln == 0 {
					return // sentinel
				}
				if buf[0] == 1 {
					own[0] = 1
					g.Reduce(th, 0, own, sum)
				}
				if i == n-1 {
					rounds++
					roundDone <- struct{}{}
				}
			}
		})
	}
	go func() { rt.Run(); close(runDone) }()

	kick := func() {
		cmds++
		if root.mt.State() == mts.StateBlocked && root.mt.BlockReason() == "await cmd" {
			rt.Unblock(root.mt, false)
		}
	}
	for i := 0; i < 4; i++ {
		rt.Post(kick)
		<-roundDone
	}
	avg := testing.AllocsPerRun(200, func() {
		rt.Post(kick)
		<-roundDone
	})
	rt.Post(func() { reduce = true })
	for i := 0; i < 4; i++ {
		rt.Post(kick)
		<-roundDone
	}
	avgReduce := testing.AllocsPerRun(200, func() {
		rt.Post(kick)
		<-roundDone
	})
	rt.Post(func() {
		stop = true
		if root.mt.State() == mts.StateBlocked && root.mt.BlockReason() == "await cmd" {
			rt.Unblock(root.mt, false)
		}
	})
	<-runDone

	t.Logf("collective round (dissemination barrier + 4KB binomial bcast, 4 procs): %.1f allocs/op, %.1f with a reduce, over %d rounds", avg, avgReduce, rounds)
	// The reduce adds three tree edges. Received partials are held for the
	// fold and then released, so the edges ride the same pools as the rest
	// of the round (0 extra; ~2 under -race, see below); dropping the
	// messages instead costs two frame buffers and a Message per edge, 9.
	if extra := avgReduce - avg; extra > 5 {
		t.Fatalf("reduce adds %.1f allocs/op to the round, want <= 5 (received partials not released?)", extra)
	}
	// Baseline measured 0.0/op: all 11 messages of a full round ride the
	// request/message freelists, the pooled wire frames, and the pooled
	// decoded-Message structs. The pin sits above that only because the
	// race detector intentionally makes sync.Pool leaky (CI runs this
	// suite under -race, where the same round measures ~8); a per-message
	// allocation sneaking back into the fan-out or token path would read
	// ~11+/op and still fail loudly.
	if avg > 9 {
		t.Fatalf("collective round allocates %.1f/op, want <= 9", avg)
	}
}

// TestPiggybackAllocs pins the piggybacked-control hot path: a windowed
// ping-pong where every credit advertisement rides a reverse-direction
// data frame. A piggybacked credit is four bytes written into the frame
// the data was leaving on anyway, so it must cost zero extra heap
// allocations — and with RecvInto recycling the pooled Mem frames, the
// whole round trip (two data frames, two credits) stays under the
// windowed-flow pin despite carrying twice the traffic.
func TestPiggybackAllocs(t *testing.T) {
	mem := transport.NewMem()
	rt := mts.New(mts.Config{Name: "piggy", IdleTimeout: 5 * time.Second})
	mk := func(id ProcID) *Proc {
		return New(Config{ID: id, RT: rt, Endpoint: mem.Attach(id, rt)})
	}
	pa, pb := mk(0), mk(1)
	// Window 4 → the credit threshold is 3, so between forced
	// advertisements every credit waits for the reverse data frame the
	// ping-pong is about to produce: the steady state piggybacks.
	ca := pa.Open(1, ChannelConfig{ID: 1, Flow: NewWindowFlow(4)})
	cb := pb.Open(0, ChannelConfig{ID: 1, Flow: NewWindowFlow(4)})

	payload := make([]byte, 4096)
	cmds := 0
	stop := false
	rounds := 0
	roundDone := make(chan struct{})
	runDone := make(chan struct{})

	var pinger *Thread
	pinger = pa.TCreate("ping", mts.PrioDefault, func(th *Thread) {
		buf := make([]byte, len(payload))
		for {
			for cmds == 0 && !stop {
				th.mt.Park("await cmd")
			}
			if stop {
				ca.Send(th, 0, nil) // zero-length sentinel
				return
			}
			cmds--
			ca.Send(th, 0, payload)
			ca.RecvInto(th, buf, Any)
		}
	})
	pb.TCreate("pong", mts.PrioDefault, func(th *Thread) {
		buf := make([]byte, len(payload))
		for {
			n, _ := cb.RecvInto(th, buf, Any)
			if n == 0 {
				return // sentinel
			}
			cb.Send(th, 0, buf[:n])
			rounds++
			roundDone <- struct{}{}
		}
	})
	go func() { rt.Run(); close(runDone) }()

	kick := func() {
		cmds++
		if pinger.mt.State() == mts.StateBlocked && pinger.mt.BlockReason() == "await cmd" {
			rt.Unblock(pinger.mt, false)
		}
	}
	for i := 0; i < 8; i++ {
		rt.Post(kick)
		<-roundDone
	}
	avg := testing.AllocsPerRun(200, func() {
		rt.Post(kick)
		<-roundDone
	})
	rt.Post(func() {
		stop = true
		if pinger.mt.State() == mts.StateBlocked && pinger.mt.BlockReason() == "await cmd" {
			rt.Unblock(pinger.mt, false)
		}
	})
	<-runDone

	sa, sb := ca.Stats(), cb.Stats()
	t.Logf("piggyback 4KB ping-pong: %.1f allocs/op over %d rounds; a: %d piggy / %d standalone, b: %d piggy / %d standalone",
		avg, rounds, sa.CtrlPiggybacked, sa.CtrlStandalone, sb.CtrlPiggybacked, sb.CtrlStandalone)
	// The round trip carries two data frames and both directions' credits.
	// With frames pooled end to end (RecvInto) and credits riding the data,
	// the whole round must stay under the one-way windowed-flow pin — a
	// piggybacked credit adding allocations would show up here first.
	if avg > 9 {
		t.Fatalf("piggybacked round allocates %.1f/op, want <= 9", avg)
	}
	// The steady state must actually have piggybacked: both ends attach
	// nearly every credit to reverse data, falling back standalone only at
	// threshold crossings and flush-timer tails.
	for name, s := range map[string]ChannelStats{"a": sa, "b": sb} {
		if s.CtrlPiggybacked == 0 {
			t.Fatalf("end %s never piggybacked a credit (standalone %d)", name, s.CtrlStandalone)
		}
		if s.CtrlPiggybacked < s.CtrlStandalone {
			t.Fatalf("end %s: piggybacked %d < standalone %d — the ride-along path is not engaging",
				name, s.CtrlPiggybacked, s.CtrlStandalone)
		}
	}
}

// TestOneWayWindowedStandaloneShare holds the piggyback protocol's headline
// number on the shape where nothing flows back to ride: a WindowFlow(8)
// 32 KB one-way stream beside a priority-7 4 KB one, each proc on its own
// runtime over Mem. Before piggybacking and threshold credit advertisements
// the receiver sent one standalone credit frame per delivery (1.0); now an
// advertisement is forced once per 3/4 window of deliveries (0.17, under
// every driver) and the flush timer adds at most one frame per
// DefaultCtrlFlushDelay of run time — which is all that makes the count
// depend on the host (0.25 under -race -cpu=1), so the limit says so. Zero
// would mean the window never needed an advertisement and the test stopped
// exercising the path.
func TestOneWayWindowedStandaloneShare(t *testing.T) {
	const msgs, videoSize, bulkSize = 2000, 4 << 10, 32 << 10
	mem := transport.NewMem()
	mk := func(id ProcID) *Proc {
		rt := mts.New(mts.Config{Name: "share", IdleTimeout: time.Minute})
		return New(Config{ID: id, RT: rt, Endpoint: mem.Attach(id, rt)})
	}
	procs := []*Proc{mk(0), mk(1)}
	// stream opens one channel on both ends and moves msgs messages of size
	// bytes from proc 0 to proc 1's to-th thread; it returns the receiving end.
	stream := func(to, size int, cfg func() ChannelConfig) *Channel {
		tx, rx := procs[0].Open(1, cfg()), procs[1].Open(0, cfg())
		procs[0].TCreate("tx", mts.PrioDefault, func(th *Thread) {
			buf := make([]byte, size)
			for k := 0; k < msgs; k++ {
				tx.Send(th, to, buf)
			}
		})
		procs[1].TCreate("rx", mts.PrioDefault, func(th *Thread) {
			buf := make([]byte, size)
			for k := 0; k < msgs; k++ {
				rx.RecvInto(th, buf, Any)
			}
		})
		return rx
	}
	stream(0, videoSize, func() ChannelConfig { return ChannelConfig{ID: 1, Priority: 7} })
	bulkRx := stream(1, bulkSize, func() ChannelConfig { return ChannelConfig{ID: 2, Flow: NewWindowFlow(8)} })
	start := time.Now()
	done := make(chan struct{}, len(procs))
	for _, p := range procs {
		p := p
		go func() { p.Start(); done <- struct{}{} }()
	}
	for range procs {
		<-done
	}
	elapsed := time.Since(start)
	s := bulkRx.Stats()
	limit := int64(0.25*msgs) + int64(elapsed/DefaultCtrlFlushDelay)
	t.Logf("bulk receiver: %d standalone / %d piggybacked control frames over %d messages in %v (%.3f per message, limit %d frames)",
		s.CtrlStandalone, s.CtrlPiggybacked, s.Received, elapsed.Round(time.Millisecond),
		float64(s.CtrlStandalone)/float64(s.Received), limit)
	if s.Received != msgs || s.CtrlStandalone == 0 || s.CtrlStandalone > limit {
		t.Fatalf("%d standalone control frames over %d bulk messages (sent %d), want 1..%d: 0.25 per message plus one per %v of the %v run",
			s.CtrlStandalone, s.Received, msgs, limit, DefaultCtrlFlushDelay, elapsed.Round(time.Millisecond))
	}
}

// TestRetransmissionReqsRecycle pins where a retransmission's sendReq comes
// from: the freelist it returns to. A lossy Mem pair on two lanes forces
// well over a hundred retransmissions under each error-control discipline;
// in steady state none of them allocates a request, so after the run the
// sender's lanes hold no more pooled requests than its windows could ever
// have had in flight. (Drawn from a different pool than they retire into —
// as the timers once did — every retransmission allocates and the lane
// freelist grows by one each time.)
func TestRetransmissionReqsRecycle(t *testing.T) {
	const msgs, window = 400, 8
	for name, mk := range map[string]func() ErrorControl{
		"go-back-n":        func() ErrorControl { return NewGoBackN(window, 2*time.Millisecond) },
		"selective-repeat": func() ErrorControl { return NewSelectiveRepeat(window, 2*time.Millisecond) },
	} {
		mem := transport.NewMem()
		mem.SetDropRate(0.3, 42)
		procs := make([]*Proc, 2)
		for i := range procs {
			rt := mts.New(mts.Config{Name: name, IdleTimeout: 10 * time.Second})
			procs[i] = New(Config{
				ID: ProcID(i), RT: rt, Endpoint: mem.Attach(ProcID(i), rt),
				Error: mk(), SendLanes: 2, RecvLanes: 2,
			})
		}
		procs[0].OnException(func(error) {}) // trailing-ack give-up after peer exit
		procs[0].TCreate("sender", mts.PrioDefault, func(th *Thread) {
			for k := 0; k < msgs; k++ {
				th.Send(0, 1, []byte{byte(k)})
			}
		})
		procs[1].TCreate("recv", mts.PrioDefault, func(th *Thread) {
			for k := 0; k < msgs; k++ {
				th.Recv(Any, Any)
			}
		})
		runReal(procs)

		var retrans int64
		switch ec := procs[0].DefaultChannel(1).Error().(type) {
		case *GoBackN:
			retrans = ec.Retransmissions()
		case *SelectiveRepeat:
			retrans = ec.Retransmissions()
		}
		pooled := 0
		for _, ln := range procs[0].lanes {
			pooled += len(ln.reqFree)
		}
		t.Logf("%s: %d retransmissions, %d sendReqs pooled", name, retrans, pooled)
		if retrans < 100 {
			t.Fatalf("%s: only %d retransmissions — test proves nothing", name, retrans)
		}
		// One window of raw retransmissions, one of deferred sends, the
		// sender's own request and the control frames between them.
		if pooled > 4*window {
			t.Fatalf("%s: %d sendReqs pooled after %d retransmissions, want <= %d: retransmissions allocate",
				name, pooled, retrans, 4*window)
		}
	}
}
