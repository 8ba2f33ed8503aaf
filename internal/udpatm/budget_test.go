package udpatm

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/mts"
	"repro/internal/transport"
)

// TestStreamCopyBudget pins, under -tags budget, how many times the
// receive side copies a 16 KB message's payload octets on the way from
// the datagram to a RecvInto buffer: 2, on either driver (one lane: the
// reader decodes into the Inbox for the receive system thread; two: it hands
// the lane engine the frame). On the default channel the message
// is its 36-octet header and 16,384 octets of body, cut into chunks of
// 8,184, 8,184 and 52 octets: three AAL5 frames of 171, 171 and 2 cells.
// Per message:
//   - atm.Reassembler moves every cell payload into the frame it was lent,
//     the chunk's place in the wire.Assembler's message frame: 344 × 48 =
//     16,512 octets, pad and trailers included;
//   - wire.Assembler.Push commits each chunk where it landed, and Take hands
//     the message frame to the consumer: nothing;
//   - core's RecvInto copies the payload into the caller's buffer: 16,384.
//
// 32,896 octets, 2.01 per payload octet. The one copy left, RecvInto's,
// goes only if the reassembler can gather into a receive the application
// posted before the message arrived.
//
// The count starts after a warm-up exchange, a message each way: a VC is
// lent no place in a message frame until it has completed a message, so
// its first message lands in the reassembler's own buffer and Push copies
// it in.
func TestStreamCopyBudget(t *testing.T) {
	if !budget.Enabled {
		t.Skip("exact counts need -tags budget")
	}
	for _, lanes := range []int{1, 2} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) { streamCopyBudget(t, lanes) })
	}
}

func streamCopyBudget(t *testing.T, lanes int) {
	const msgs, size, perMsg = 20, 16 << 10, 16512 + 16384
	procs := streamProcs(t, core.Config{SendLanes: lanes, RecvLanes: lanes})
	procs[0].TCreate("send", mts.PrioDefault, func(th *core.Thread) {
		payload := make([]byte, size)
		th.Send(0, 1, payload)
		th.Recv(core.Any, core.Any) // the reply: nothing else is in flight
		budget.Reset()
		for k := 0; k < msgs; k++ {
			th.Send(0, 1, payload)
		}
	})
	procs[1].TCreate("recv", mts.PrioDefault, func(th *core.Thread) {
		buf := make([]byte, size)
		th.RecvInto(buf, core.Any, core.Any)
		th.Send(0, 0, []byte("warm"))
		for k := 0; k < msgs; k++ {
			if n, _ := th.RecvInto(buf, core.Any, core.Any); n != size {
				t.Errorf("message %d: %d octets, want %d", k, n, size)
			}
		}
	})
	runProcs(procs)
	copied := budget.Read(budget.RecvCopied)
	t.Logf("receive side: %d octets copied for %d × %d payload octets, %.4f per payload octet",
		copied, msgs, size, float64(copied)/(msgs*size))
	if copied != msgs*perMsg {
		t.Errorf("receive side copied %d octets for %d messages, want %d × %d (2 copies per payload octet)",
			copied, msgs, msgs, perMsg)
	}
}

// TestStreamHandoffBudget counts the goroutine transitions a one-way 16 KB
// message takes in the stream_udpatm shape — WindowFlow(8) and GoBackN(8) on
// the default channel — at GOMAXPROCS 1, by the runtime's own count: the
// /sched/latencies:seconds histogram samples one transition out of running
// in eight per goroutine, so its count's delta ×8 over a run is the number
// of transitions, with no hook in the code. It counts the runtime's own
// goroutines too (GC, timers), so each row is a range. One lane runs the
// thread driver: a sender parks behind the send system thread, and an
// arrival goes reader → Inbox → receive system thread → receiver. Two lanes
// run the lane engine: a sender services its lane inline, and an arrival
// goes reader → lane → receiver. Measured on a 2-vCPU Xeon under Go 1.24,
// three runs each: 5.254-5.259 at one lane, 2.567-2.579 at two.
func TestStreamHandoffBudget(t *testing.T) {
	if !budget.Enabled {
		t.Skip("exact counts need -tags budget")
	}
	for _, row := range []struct {
		lanes  int
		lo, hi float64
	}{{1, 4.9, 5.6}, {2, 2.3, 2.9}} {
		t.Run(fmt.Sprintf("lanes=%d", row.lanes), func(t *testing.T) {
			per := streamHandoffs(t, row.lanes)
			t.Logf("%.3f goroutine transitions per message", per)
			if per < row.lo || per > row.hi {
				t.Errorf("%.3f goroutine transitions per message, want [%.1f, %.1f]", per, row.lo, row.hi)
			}
		})
	}
}

// streamHandoffs streams 1,000 warm-up and then 20,000 counted messages
// from proc 0 to proc 1 and returns the goroutine transitions per counted
// message.
func streamHandoffs(t *testing.T, lanes int) float64 {
	const warm, msgs, size = 1000, 20000, 16 << 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	procs := streamProcs(t, core.Config{
		SendLanes: lanes, RecvLanes: lanes,
		Flow: core.NewWindowFlow(8), Error: core.NewGoBackN(8, 20*time.Millisecond),
	})
	var start, end uint64
	procs[0].TCreate("send", mts.PrioDefault, func(th *core.Thread) {
		payload := make([]byte, size)
		for k := 0; k < warm; k++ {
			th.Send(0, 1, payload)
		}
		th.Recv(core.Any, core.Any)
		start = transitionSamples()
		for k := 0; k < msgs; k++ {
			th.Send(0, 1, payload)
		}
	})
	procs[1].TCreate("recv", mts.PrioDefault, func(th *core.Thread) {
		buf := make([]byte, size)
		for k := 0; k < warm; k++ {
			th.RecvInto(buf, core.Any, core.Any)
		}
		th.Send(0, 0, []byte("warm"))
		for k := 0; k < msgs; k++ {
			if n, _ := th.RecvInto(buf, core.Any, core.Any); n != size {
				t.Errorf("message %d: %d octets, want %d", k, n, size)
			}
		}
		end = transitionSamples()
	})
	runProcs(procs)
	return float64(8*(end-start)) / msgs
}

// transitionSamples reads how many goroutine transitions out of running the
// runtime has sampled so far.
func transitionSamples() (n uint64) {
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	for _, c := range s[0].Value.Float64Histogram().Counts {
		n += c
	}
	return n
}

// streamProcs attaches procs 0 and 1 to a fresh network, each configured as
// cfg with its own ID, runtime and endpoint; the endpoints close when the
// test ends.
func streamProcs(t *testing.T, cfg core.Config) (procs [2]*core.Proc) {
	net := NewNetwork()
	for i := range procs {
		rt := newRT("stream")
		ep, err := net.Attach(transport.ProcID(i), rt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		c := cfg
		c.ID, c.RT, c.Endpoint = core.ProcID(i), rt, ep
		procs[i] = core.New(c)
	}
	return procs
}

// runProcs runs every proc to completion.
func runProcs(procs [2]*core.Proc) {
	done := make(chan struct{}, len(procs))
	for _, p := range procs {
		p := p
		go func() { p.Start(); done <- struct{}{} }()
	}
	for range procs {
		<-done
	}
}
