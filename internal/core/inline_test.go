package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/mts"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Tests of the inline engine pass: the delivering goroutine running a
// sleeping lane engine's pass for a short frame (routeFrame / passInline).

// inlineCluster builds n two-lane procs over Mem.
func inlineCluster(n int, net *transport.Mem) []*Proc {
	procs := make([]*Proc, n)
	for i := range procs {
		rt := mts.New(mts.Config{Name: fmt.Sprintf("node%d", i), IdleTimeout: 10 * time.Second})
		procs[i] = New(Config{
			ID: ProcID(i), RT: rt, Endpoint: net.Attach(ProcID(i), rt),
			SendLanes: 2, RecvLanes: 2,
		})
	}
	return procs
}

// passCounts sums the engine and inline passes of every lane of procs.
func passCounts(procs ...*Proc) (engine, inline int64) {
	for _, p := range procs {
		for _, st := range p.LaneStats() {
			engine += st.EnginePasses
			inline += st.InlinePasses
		}
	}
	return
}

// TestInlinePassSteadyState: in a ping-pong every arrival finds the
// receiver's engine asleep and its lane free, so once the engines have gone
// to sleep each message costs one inline pass and the engine goroutines run
// none — the hand-off the pass used to cost is gone, not merely cheaper.
func TestInlinePassSteadyState(t *testing.T) {
	const warm, rounds = 200, 2000
	procs := inlineCluster(2, transport.NewMem())
	var e0, i0, e1, i1 int64
	procs[0].TCreate("ping", mts.PrioDefault, func(th *Thread) {
		buf := make([]byte, 64)
		for k := 0; k < warm+rounds; k++ {
			if k == warm {
				e0, i0 = passCounts(procs...)
			}
			th.Send(0, 1, buf)
			th.RecvInto(buf, 0, 1)
		}
		e1, i1 = passCounts(procs...)
	})
	procs[1].TCreate("pong", mts.PrioDefault, func(th *Thread) {
		buf := make([]byte, 64)
		for k := 0; k < warm+rounds; k++ {
			th.RecvInto(buf, 0, 0)
			th.Send(0, 0, buf)
		}
	})
	runReal(procs)
	engine, inline := e1-e0, i1-i0
	t.Logf("%d round trips: %d inline passes, %d engine passes", rounds, inline, engine)
	if inline+engine < 2*rounds {
		t.Errorf("%d passes for %d messages, want one each", inline+engine, 2*rounds)
	}
	// On one P a reply cannot be on its way while the sender of the frame
	// it answers still holds its lane, so the engines never wake. With more
	// Ps that overlap is possible (the reply's TryLock fails and the engine
	// takes the frame); it must stay the exception.
	if runtime.GOMAXPROCS(0) == 1 && engine != 0 {
		t.Errorf("engine goroutines ran %d passes in steady state, want 0", engine)
	}
	if engine*4 > inline {
		t.Errorf("engine ran %d passes against %d inline: the inline path is not the common case", engine, inline)
	}
}

// TestInlinePassCreditReentersSenderLane: two procs stream window-1 traffic
// at each other. Every data frame's inline pass on the receiver sends the
// credit straight back, which re-enters the sender's routeFrame while the
// sender still holds that very lane's lock up-stack: the TryLock must fail
// and the frame must go to the engine. A Lock there deadlocks on the spot.
func TestInlinePassCreditReentersSenderLane(t *testing.T) {
	const msgs = 400
	procs := inlineCluster(2, transport.NewMem())
	var ch [2]*Channel
	for side := range ch {
		ch[side] = procs[side].Open(ProcID(1-side), ChannelConfig{ID: 1, Flow: NewWindowFlow(1)})
	}
	var got [2][]int
	for side := range procs {
		side := side
		procs[side].TCreate("tx", mts.PrioDefault, func(th *Thread) {
			for k := 0; k < msgs; k++ {
				ch[side].SendTagged(th, k, 1, []byte{byte(k)})
			}
		})
		procs[side].TCreate("rx", mts.PrioDefault, func(th *Thread) {
			for k := 0; k < msgs; k++ {
				m := recvMsg(th, 1, Any, Any, ProcID(1-side))
				got[side] = append(got[side], m.Tag)
				m.Release()
			}
		})
	}
	runReal(procs)
	for side := range got {
		if len(got[side]) != msgs {
			t.Fatalf("side %d received %d/%d", side, len(got[side]), msgs)
		}
		for k, tag := range got[side] {
			if tag != k {
				t.Fatalf("side %d position %d saw tag %d (FIFO broken)", side, k, tag)
			}
		}
	}
	engine, inline := passCounts(procs...)
	t.Logf("%d inline passes, %d engine passes", inline, engine)
	if engine == 0 || inline == 0 {
		t.Errorf("passes: %d engine, %d inline — want both paths taken (credits fall back, data runs inline)", engine, inline)
	}
}

// TestInlinePassKeepsOrderAcrossThreshold: a frame above inlinePassMax goes
// to the engine, the short one right behind it on the same channel would
// qualify for the inline path — and must queue behind it instead, because a
// claim is only granted on an empty ring with a sleeping consumer.
func TestInlinePassKeepsOrderAcrossThreshold(t *testing.T) {
	const pairs = 300
	procs := inlineCluster(2, transport.NewMem())
	big, small := make([]byte, 2*inlinePassMax), make([]byte, 16)
	var tags, sizes []int
	procs[0].TCreate("tx", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < pairs; k++ {
			th.SendTagged(2*k, 0, 1, big)
			th.SendTagged(2*k+1, 0, 1, small)
		}
	})
	procs[1].TCreate("rx", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < 2*pairs; k++ {
			m := recvMsg(th, 0, Any, Any, 0)
			tags, sizes = append(tags, m.Tag), append(sizes, len(m.Data))
			m.Release()
		}
	})
	runReal(procs)
	for k, tag := range tags {
		want := len(small)
		if k%2 == 0 {
			want = len(big)
		}
		if tag != k || sizes[k] != want {
			t.Fatalf("position %d: tag %d with %d bytes, want tag %d with %d (short frame overtook a long one?)", k, tag, sizes[k], k, want)
		}
	}
	if engine, inline := passCounts(procs[1]); engine == 0 {
		t.Errorf("receiver passes: %d engine, %d inline — frames above the threshold must go to the engine", engine, inline)
	}
}

// TestInlinePassNotAfterShutdown: a short frame that reaches a proc whose
// lanes have stopped stays in the ring. Nobody becomes its consumer, so no
// pass runs and nothing is posted into the finished runtime.
func TestInlinePassNotAfterShutdown(t *testing.T) {
	procs := inlineCluster(2, transport.NewMem())
	procs[0].TCreate("tx", mts.PrioDefault, func(th *Thread) { th.Send(0, 1, []byte("hi")) })
	procs[1].TCreate("rx", mts.PrioDefault, func(th *Thread) { th.Recv(0, 0) })
	runReal(procs)
	p := procs[1]
	engine, inline := passCounts(p)
	before := p.Lifecycle()
	if before.RingPushed != before.RingDrained {
		t.Fatalf("ring unbalanced before the late frame: pushed %d, drained %d", before.RingPushed, before.RingDrained)
	}
	late := &transport.Message{From: 0, To: 1, Data: []byte("late")}
	fb := wire.GetBuf(late.WireSize())
	fb.B = late.MarshalAppend(fb.B)
	p.routeFrame(fb)
	if e, i := passCounts(p); e != engine || i != inline {
		t.Errorf("a pass ran after shutdown: engine %d -> %d, inline %d -> %d", engine, e, inline, i)
	}
	after := p.Lifecycle()
	if after.RingPushed != before.RingPushed+1 || after.RingDrained != before.RingDrained {
		t.Errorf("late frame: pushed %d -> %d, drained %d -> %d; want it counted in and left in the ring",
			before.RingPushed, after.RingPushed, before.RingDrained, after.RingDrained)
	}
	if ln := p.DefaultChannel(0).ln; ln.rx.Len() != 1 {
		t.Errorf("lane ring holds %d items, want the late frame", ln.rx.Len())
	}
	if leaks := p.Leaks(); len(leaks) != 0 {
		t.Errorf("leaks: %v", leaks)
	}
}
