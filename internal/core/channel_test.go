package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/mts"
	"repro/internal/trace"
	"repro/internal/transport"
)

// TestTwoChannelsTwoDisciplines is the tentpole in miniature: one process
// pair runs a rate-paced channel and a windowed go-back-N channel
// concurrently, each with its own state machine and counters.
func TestTwoChannelsTwoDisciplines(t *testing.T) {
	mem := transport.NewMem()
	procs := realCluster(t, 2, mem, nil)
	const (
		frames    = 8
		frameSize = 2000
		bulkMsgs  = 6
		bulkSize  = 5000
	)
	// 200 KB/s with a one-frame bucket paces ~10ms/frame.
	video0 := procs[0].Open(1, ChannelConfig{ID: 1, Priority: 7, Flow: NewRateFlow(200e3, frameSize)})
	bulk0 := procs[0].Open(1, ChannelConfig{ID: 2, Flow: NewWindowFlow(2), Error: NewGoBackN(4, 50*time.Millisecond)})
	video1 := procs[1].Open(0, ChannelConfig{ID: 1, Priority: 7})
	bulk1 := procs[1].Open(0, ChannelConfig{ID: 2, Flow: NewWindowFlow(2), Error: NewGoBackN(4, 50*time.Millisecond)})

	procs[0].TCreate("video", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < frames; k++ {
			video0.Send(th, 0, make([]byte, frameSize))
		}
	})
	procs[0].TCreate("bulk", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < bulkMsgs; k++ {
			bulk0.Send(th, 1, make([]byte, bulkSize))
		}
	})
	var gotFrames, gotBulk int
	procs[1].TCreate("viewer", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < frames; k++ {
			data, from := video1.Recv(th, Any)
			if len(data) != frameSize || from.Proc != 0 {
				t.Errorf("frame %d: %d bytes from %+v", k, len(data), from)
			}
			gotFrames++
		}
	})
	procs[1].TCreate("sink", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < bulkMsgs; k++ {
			data, _ := bulk1.Recv(th, Any)
			if len(data) != bulkSize {
				t.Errorf("bulk %d: %d bytes", k, len(data))
			}
			gotBulk++
		}
	})
	start := time.Now()
	runReal(procs)
	elapsed := time.Since(start)

	if gotFrames != frames || gotBulk != bulkMsgs {
		t.Fatalf("delivered %d/%d frames, %d/%d bulk", gotFrames, frames, gotBulk, bulkMsgs)
	}
	// The rate channel must actually pace: 8 frames of 2000 B at 200 KB/s
	// with a one-frame head start needs >= ~70 ms.
	if elapsed < 50*time.Millisecond {
		t.Fatalf("run finished in %v: rate channel did not pace", elapsed)
	}
	vs, bs := video0.Stats(), bulk0.Stats()
	if vs.Sent != frames || vs.BytesSent != frames*frameSize {
		t.Fatalf("video stats: %+v", vs)
	}
	if bs.Sent != bulkMsgs || bs.BytesSent != bulkMsgs*bulkSize {
		t.Fatalf("bulk stats: %+v", bs)
	}
	if vs.Flow != "rate" || bs.Error != "go-back-n" {
		t.Fatalf("discipline names: video=%+v bulk=%+v", vs, bs)
	}
	rv, rb := video1.Stats(), bulk1.Stats()
	if rv.Received != frames || rb.Received != bulkMsgs || rb.BytesReceived != bulkMsgs*bulkSize {
		t.Fatalf("receiver stats: video=%+v bulk=%+v", rv, rb)
	}
}

// TestChannelTrafficInvisibleToDefaultRecv: channel matching is exact, so
// a wildcard Thread.Recv never steals an explicit channel's message.
func TestChannelTrafficInvisibleToDefaultRecv(t *testing.T) {
	eng, procs := simCluster(t, 2, nil)
	ch0 := procs[0].Open(1, ChannelConfig{ID: 3})
	ch1 := procs[1].Open(0, ChannelConfig{ID: 3})
	var gotDefault, gotChannel []byte
	procs[0].TCreate("send", mts.PrioDefault, func(th *Thread) {
		ch0.Send(th, 0, []byte("on the channel"))
		th.Send(0, 1, []byte("on default"))
	})
	procs[1].TCreate("recv", mts.PrioDefault, func(th *Thread) {
		// Wildcard default Recv first: it must match the default-channel
		// message even though the channel message arrived earlier.
		gotDefault, _ = th.Recv(Any, Any)
		gotChannel, _ = ch1.Recv(th, Any)
	})
	eng.Run()
	if string(gotDefault) != "on default" || string(gotChannel) != "on the channel" {
		t.Fatalf("default=%q channel=%q", gotDefault, gotChannel)
	}
}

// TestChannelPriorityDrainOrder: while the send system thread is busy
// draining a large transfer, a high-priority channel's queued message must
// reach the wire before a low-priority one queued earlier.
func TestChannelPriorityDrainOrder(t *testing.T) {
	eng, procs := simCluster(t, 2, nil)
	low0 := procs[0].Open(1, ChannelConfig{ID: 1, Priority: 0})
	high0 := procs[0].Open(1, ChannelConfig{ID: 2, Priority: 7})
	low1 := procs[1].Open(0, ChannelConfig{ID: 1, Priority: 0})
	high1 := procs[1].Open(0, ChannelConfig{ID: 2, Priority: 7})

	// Creation order fixes run order at equal thread priority: the bulk
	// default send occupies the wire first, then "low" enqueues before
	// "high" does.
	procs[0].TCreate("bulk", mts.PrioDefault, func(th *Thread) {
		th.Send(0, 1, make([]byte, 512*1024))
	})
	procs[0].TCreate("low", mts.PrioDefault, func(th *Thread) {
		low0.Send(th, 1, []byte("low")) // receiver thread indices: drain=0, rlow=1, rhigh=2
	})
	procs[0].TCreate("high", mts.PrioDefault, func(th *Thread) {
		high0.Send(th, 2, []byte("high"))
	})

	var order []string
	procs[1].TCreate("drain", mts.PrioDefault, func(th *Thread) {
		th.Recv(Any, Any) // the bulk message
	})
	procs[1].TCreate("rlow", mts.PrioDefault, func(th *Thread) {
		low1.Recv(th, Any)
		order = append(order, "low")
	})
	procs[1].TCreate("rhigh", mts.PrioDefault, func(th *Thread) {
		high1.Recv(th, Any)
		order = append(order, "high")
	})
	eng.Run()
	if len(order) != 2 || order[0] != "high" {
		t.Fatalf("arrival order = %v, want high first", order)
	}
}

// TestUnopenedChannelRaisesException: data arriving on a channel the
// receiver never opened is dropped through the exception handler instead
// of being misdelivered.
func TestUnopenedChannelRaisesException(t *testing.T) {
	eng, procs := simCluster(t, 2, nil)
	ch := procs[0].Open(1, ChannelConfig{ID: 9})
	var caught error
	procs[1].OnException(func(err error) { caught = err })
	procs[0].TCreate("send", mts.PrioDefault, func(th *Thread) {
		ch.Send(th, 0, []byte("into the void"))
	})
	procs[1].TCreate("alive", mts.PrioDefault, func(th *Thread) {
		// Stay alive long enough for the message to arrive.
		th.Compute(50*time.Millisecond, nil)
	})
	eng.Run()
	if caught == nil {
		t.Fatal("no exception for data on an unopened channel")
	}
}

func TestChannelValidation(t *testing.T) {
	mem := transport.NewMem()
	procs := realCluster(t, 1, mem, nil)
	p := procs[0]
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("id 0", func() { p.Open(1, ChannelConfig{ID: 0}) })
	mustPanic("id too big", func() { p.Open(1, ChannelConfig{ID: MaxChannelID + 1}) })
	mustPanic("priority range", func() { p.Open(1, ChannelConfig{ID: 1, Priority: NumChannelPriorities}) })
	p.Open(1, ChannelConfig{ID: 1})
	mustPanic("duplicate", func() { p.Open(1, ChannelConfig{ID: 1}) })
	shared := NewWindowFlow(2)
	p.Open(1, ChannelConfig{ID: 2, Flow: shared})
	mustPanic("shared discipline", func() { p.Open(1, ChannelConfig{ID: 3, Flow: shared}) })
	// Drain the runtime so the leftover system threads don't trip the
	// deadlock detector in later tests.
	p.TCreate("noop", mts.PrioDefault, func(*Thread) {})
	runReal(procs)
}

// gated reports whether a discipline is holding c's head back: requests are
// queued on the channel and the lane scheduler has taken it out of its ring.
func gated(c *Channel) bool {
	ln := c.lockLane()
	defer ln.mu.Unlock()
	return c.sq.Size() > 0 && !c.inSched
}

// TestCloseFailsGatedSends: a thread blocked in Send because one of the four
// gates — window credit, rate tokens, a full go-back-N or selective-repeat
// window — is holding its request back must not hang when the channel
// closes. Close fails the gated send with the typed ChannelClosedError, the
// caller unblocks, and a send after the close fails the same way. The peer
// runs neither discipline, so it never credits or acks: only Close can
// release the gated request.
func TestCloseFailsGatedSends(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func() ChannelConfig
	}{
		{"window", func() ChannelConfig { return ChannelConfig{Flow: NewWindowFlow(1)} }},
		// 1 KB/s: the second 1 KB message waits ~1 s for tokens.
		{"rate", func() ChannelConfig { return ChannelConfig{Flow: NewRateFlow(1000, 1000)} }},
		{"go-back-n", func() ChannelConfig {
			g := NewGoBackN(1, 5*time.Millisecond)
			g.MaxRetries = 3
			return ChannelConfig{Error: g}
		}},
		{"selective-repeat", func() ChannelConfig {
			s := NewSelectiveRepeat(1, 5*time.Millisecond)
			s.MaxRetries = 3
			return ChannelConfig{Error: s}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := transport.NewMem()
			procs := realCluster(t, 2, mem, nil)
			var caught []error
			procs[0].OnException(func(err error) { caught = append(caught, err) })
			cfg := tc.cfg()
			cfg.ID = 1
			ch0 := procs[0].Open(1, cfg)
			ch1 := procs[1].Open(0, ChannelConfig{ID: 1})

			var sendReturned, sendAfterCloseReturned bool
			start := time.Now()
			procs[0].TCreate("blocked", mts.PrioDefault, func(th *Thread) {
				ch0.Send(th, 0, make([]byte, 1000)) // passes the gate
				ch0.Send(th, 0, make([]byte, 1000)) // gated: returns only via Close
				sendReturned = true
			})
			procs[0].TCreate("closer", mts.PrioDefault, func(th *Thread) {
				for !gated(ch0) {
					th.Yield()
				}
				ch0.Close()
				if !ch0.Closed() {
					t.Error("Closed() false after Close")
				}
				ch0.Send(th, 0, []byte("after close"))
				sendAfterCloseReturned = true
			})
			procs[1].TCreate("recv", mts.PrioDefault, func(th *Thread) {
				ch1.Recv(th, Any) // only the first message ever arrives
			})
			runReal(procs)

			if !sendReturned || !sendAfterCloseReturned {
				t.Fatalf("gated send returned %v, send after close returned %v", sendReturned, sendAfterCloseReturned)
			}
			if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
				t.Fatalf("close took %v: the gated send waited for its gate instead of failing", elapsed)
			}
			typed := 0
			for _, err := range caught {
				var cce *ChannelClosedError
				if errors.As(err, &cce) {
					typed++
					if cce.ID != 1 || cce.Peer != 1 {
						t.Fatalf("ChannelClosedError names channel %d to proc %d, want 1 to 1", cce.ID, cce.Peer)
					}
				}
			}
			if typed != 2 {
				t.Fatalf("%d ChannelClosedErrors, want 2 (the gated send and the one after close); exceptions: %v", typed, caught)
			}
		})
	}
}

// TestCloseFailsSendQueuedRequest drives the Send-races-Close window: the
// request is already past sendOn's closed check and queued in the send
// system thread's priority queue (the send thread is busy draining a bulk
// transfer) when Close runs. The send loop must fail it on pop — caller
// unblocked, exception raised — instead of admitting it into a torn-down
// discipline or panicking.
func TestCloseFailsSendQueuedRequest(t *testing.T) {
	eng, procs := simCluster(t, 2, nil)
	var caught []error
	procs[0].OnException(func(err error) { caught = append(caught, err) })
	ch0 := procs[0].Open(1, ChannelConfig{ID: 5, Flow: NewWindowFlow(4)})
	procs[1].Open(0, ChannelConfig{ID: 5, Flow: NewWindowFlow(4)})

	var sendReturned bool
	// Creation order fixes run order: "bulk" occupies the send thread with
	// a long wire drain; "racer" then queues a channel-5 send behind it;
	// "closer" closes the channel while that request still sits in sendQ.
	procs[0].TCreate("bulk", mts.PrioDefault, func(th *Thread) {
		th.Send(0, 1, make([]byte, 4<<20)) // ~0.3 s of virtual drain time
	})
	procs[0].TCreate("racer", mts.PrioDefault, func(th *Thread) {
		th.Compute(time.Millisecond, nil)
		ch0.Send(th, 1, []byte("queued behind bulk"))
		sendReturned = true
	})
	procs[0].TCreate("closer", mts.PrioDefault, func(th *Thread) {
		th.Compute(2*time.Millisecond, nil) // after racer queued, before pop
		ch0.Close()
	})
	procs[1].TCreate("drain", mts.PrioDefault, func(th *Thread) {
		th.Recv(Any, Any) // the bulk message; channel-5 message must die
	})
	eng.Run()

	if !sendReturned {
		t.Fatal("queued send never returned after Close")
	}
	if len(caught) == 0 {
		t.Fatal("send-races-Close was not reported through the exception handler")
	}
}

// TestRateFlowPreservesFIFO: a small message submitted while a large one
// is waiting for tokens must queue behind it, not overtake it on its
// smaller deficit — the paced channel is FIFO: the gate holds the head of
// the channel's queue, and everything behind it waits there too.
func TestRateFlowPreservesFIFO(t *testing.T) {
	mem := transport.NewMem()
	// 100 KB/s with a one-big-message bucket: big #1 passes instantly,
	// big #2 waits ~80 ms for tokens.
	procs := realCluster(t, 2, mem, func(i int) (FlowControl, ErrorControl) {
		return NewRateFlow(1e5, 8000), nil
	})
	ch := procs[0].DefaultChannel(1)
	var order []int
	procs[0].TCreate("big", mts.PrioDefault, func(th *Thread) {
		th.Send(0, 1, make([]byte, 8000))
		th.Send(0, 1, make([]byte, 8000))
	})
	procs[0].TCreate("small", mts.PrioDefault, func(th *Thread) {
		for !gated(ch) { // until big #2 is token-gated
			th.Yield()
		}
		// A 100 B message: its own deficit clears in ~1 ms, 80× sooner
		// than big #2's. It must still queue behind it.
		th.Send(0, 1, make([]byte, 100))
	})
	procs[1].TCreate("recv", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < 3; k++ {
			data, _ := th.Recv(Any, Any)
			order = append(order, len(data))
		}
	})
	runReal(procs)
	want := []int{8000, 8000, 100}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("paced channel reordered: sizes %v, want %v", order, want)
		}
	}
}

// TestPrioQueueOrder pins the queue discipline the system threads dispatch
// by: higher levels drain first, FIFO within a level, prepend jumps the
// line of its own level only.
func TestPrioQueueOrder(t *testing.T) {
	var q prioQueue[int]
	q.push(0, 1)
	q.push(3, 2)
	q.push(0, 3)
	q.push(ctrlLevel, 4)
	q.push(3, 5)
	want := []int{4, 2, 5, 1, 3}
	for i, w := range want {
		if q.empty() {
			t.Fatalf("empty after %d pops", i)
		}
		if got := q.pop(); got != w {
			t.Fatalf("pop %d = %d, want %d", i, got, w)
		}
	}
	if !q.empty() {
		t.Fatal("queue not empty")
	}

	q.push(2, 10)
	q.push(2, 11)
	q.prependLevel(2, []int{8, 9})
	for _, w := range []int{8, 9, 10, 11} {
		if got := q.pop(); got != w {
			t.Fatalf("after prepend: got %d, want %d", got, w)
		}
	}
}

// TestChannelTraceLanes: with a Tracer configured, every channel gets its
// own timeline lane named "<TraceName>/ch<id>><peer>", so a traced run
// shows which traffic class occupied the send path when.
func TestChannelTraceLanes(t *testing.T) {
	mem := transport.NewMem()
	rtA := mts.New(mts.Config{Name: "laneA", IdleTimeout: 10 * time.Second})
	rtB := mts.New(mts.Config{Name: "laneB", IdleTimeout: 10 * time.Second})
	rec := trace.NewRecorder(rtA.Clock())
	pa := New(Config{ID: 0, RT: rtA, Endpoint: mem.Attach(0, rtA), Tracer: rec, TraceName: "p0"})
	pb := New(Config{ID: 1, RT: rtB, Endpoint: mem.Attach(1, rtB)})

	ca := pa.Open(1, ChannelConfig{ID: 5, Priority: 3})
	cb := pb.Open(0, ChannelConfig{ID: 5, Priority: 3})
	pa.TCreate("tx", mts.PrioDefault, func(th *Thread) {
		for i := 0; i < 3; i++ {
			ca.Send(th, 0, []byte("lane"))
		}
	})
	var got int
	pb.TCreate("rx", mts.PrioDefault, func(th *Thread) {
		buf := make([]byte, 16)
		for i := 0; i < 3; i++ {
			cb.RecvInto(th, buf, Any)
			got++
		}
	})
	runReal([]*Proc{pa, pb})

	if got != 3 {
		t.Fatalf("delivered %d of 3", got)
	}
	if rec.Timeline("p0/ch5>1") == nil {
		t.Fatalf("no trace lane for channel 5; rows: %v", rec.Names())
	}
	// The default channel gets a lane too once it carries traffic — but
	// only channels that transmitted appear, so an unused ID is absent.
	if rec.Timeline("p0/ch9>1") != nil {
		t.Fatal("lane appeared for a channel that never existed")
	}
}
