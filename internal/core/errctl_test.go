package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/mts"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestGoBackNTimerMeasuresTimeWithoutProgress: a loss-free windowed stream
// that runs for many Timeouts — the window is never empty, acks slide it the
// whole time — retransmits nothing. (The timer used to be armed once and to
// resend the whole window when it fired, progress or not: one spurious
// window per Timeout, each reassembled, checked and thrown away by the
// receiver.) Virtual mesh, so the Timeouts are exact.
func TestGoBackNTimerMeasuresTimeWithoutProgress(t *testing.T) {
	const msgs, size = 200, 16 << 10
	// An ack arrives every ~2.7 ms of modeled link time; the window takes
	// ~22 ms to turn over and the stream ~550 ms.
	timeout := 10 * time.Millisecond
	vm := NewVirtualMesh(2, 1, VirtualMeshConfig{Lanes: 1})
	cfg := func() ChannelConfig {
		return ChannelConfig{ID: 1, Flow: NewWindowFlow(8), Error: NewGoBackN(8, timeout)}
	}
	tx, rx := vm.Procs[0].Open(1, cfg()), vm.Procs[1].Open(0, cfg())
	vm.Procs[0].TCreate("tx", mts.PrioDefault, func(th *Thread) {
		buf := make([]byte, size)
		for k := 0; k < msgs; k++ {
			tx.Send(th, 0, buf)
		}
	})
	var took time.Duration
	retrans := int64(-1)
	vm.Procs[1].TCreate("rx", mts.PrioDefault, func(th *Thread) {
		buf := make([]byte, size)
		for k := 0; k < msgs; k++ {
			rx.RecvInto(th, buf, Any)
		}
		// Counted at the last delivery: once this proc leaves, the tail's
		// acks may never go out and the sender retries it into the void.
		took, retrans = vm.Now(), tx.Error().(*GoBackN).Retransmissions()
	})
	vm.Run()
	if took < 10*timeout {
		t.Fatalf("stream took %v, under ten Timeouts of %v: the timer was never tried", took, timeout)
	}
	if retrans != 0 {
		t.Fatalf("loss-free stream of %d messages over %v (Timeout %v): %d retransmissions, want 0", msgs, took, timeout, retrans)
	}
}

// TestErrorControlSendAllocs pins a steady-state send on Mem under each
// error-control discipline at zero allocations. One round is a 4 KB Send, its
// RecvInto, the flush timer that carries the ack back and the discipline's
// own timer firing: the retained copy, its bytes, the window's slide and the
// timer callbacks all come from what the ack path gave back. Timers run on a
// test clock swapped in for the runtime's (fire everything armed, once per
// round), because the real one allocates per arm. One lane: the thread
// driver, whose send and receive threads the rounds step.
func TestErrorControlSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is leaky under the race detector; Mem's frames come from one")
	}
	measure := func(mk func() ErrorControl) float64 {
		mem := transport.NewMem()
		rt := mts.New(mts.Config{Name: "alloc", IdleTimeout: 5 * time.Second})
		var armed, firing []func()
		after := func(_ time.Duration, fn func()) { armed = append(armed, fn) }
		procs := [2]*Proc{}
		for i := range procs {
			procs[i] = New(Config{ID: ProcID(i), RT: rt, Endpoint: mem.Attach(ProcID(i), rt), SendLanes: 1, RecvLanes: 1})
			procs[i].after = after
		}
		cfg := func() ChannelConfig { return ChannelConfig{ID: 1, Flow: NewWindowFlow(8), Error: mk()} }
		tx, rx := procs[0].Open(1, cfg()), procs[1].Open(0, cfg())

		cmds, stop := 0, false
		roundDone := make(chan struct{})
		runDone := make(chan struct{})
		sender := procs[0].TCreate("sender", mts.PrioDefault, func(th *Thread) {
			payload := make([]byte, 4096)
			for {
				for cmds == 0 && !stop {
					th.mt.Park("await cmd")
				}
				if stop {
					tx.Send(th, 0, nil) // releases the receiver
					return
				}
				cmds--
				tx.Send(th, 0, payload)
			}
		})
		procs[1].TCreate("recv", mts.PrioDefault, func(th *Thread) {
			buf := make([]byte, 4096)
			for {
				if n, _ := rx.RecvInto(th, buf, Any); n == 0 {
					return
				}
				roundDone <- struct{}{}
			}
		})
		go func() { rt.Run(); close(runDone) }()
		wake := func() {
			if sender.mt.State() == mts.StateBlocked && sender.mt.BlockReason() == "await cmd" {
				rt.Unblock(sender.mt, false)
			}
		}
		tick := func() { // every armed timer fires
			armed, firing = firing[:0], armed
			for i, fn := range firing {
				fn()
				firing[i] = nil
			}
		}
		step := func() {
			tick()
			cmds++
			wake()
		}
		round := func() {
			rt.Post(step)
			<-roundDone
		}
		for i := 0; i < 32; i++ { // fill the freelists: a window and more
			round()
		}
		avg := testing.AllocsPerRun(200, round)
		rt.Post(func() { stop = true; wake() })
		// The sentinel is acknowledged like any message; keep the clock
		// running until both procs have wound down.
		for done := false; !done; {
			select {
			case <-runDone:
				done = true
			case <-time.After(time.Millisecond):
				rt.Post(tick)
			}
		}
		return avg
	}
	for name, mk := range map[string]func() ErrorControl{
		"none":             func() ErrorControl { return nil },
		"go-back-n":        func() ErrorControl { return NewGoBackN(8, time.Second) },
		"selective-repeat": func() ErrorControl { return NewSelectiveRepeat(8, time.Second) },
	} {
		if got := measure(mk); got != 0 {
			t.Errorf("%s: %.0f allocations per 4 KB round, want 0", name, got)
		}
	}
}

// TestGoBackNOverLossyATM runs NCS error control above the raw ATM-API
// path with adapter-level frame drops: the scenario the paper's error
// control thread exists for (no TCP underneath to retransmit). The procs
// are built with no timer or compute wiring: a sim node's runtime is
// virtual, so go-back-N's retransmit timer and the receiver's modeled
// compute both ride the engine's clock.
func TestGoBackNOverLossyATM(t *testing.T) {
	eng := sim.NewEngine()
	eng.SetMaxTime(time.Hour)
	net := netsim.NewATMLAN(eng, 2, netsim.ATMLANConfig{HostLinkBps: 100e6})
	nicCfg := nic.Config{
		NumBuffers:      4,
		BufferSize:      2048,
		TrapCost:        10 * time.Microsecond,
		HostCopyPerByte: 100 * time.Nanosecond,
		// Drop every 7th received AAL5 frame. The period is chosen coprime
		// to the retransmission round size (window 4 x 3 frames/message =
		// 12 frames): a period dividing the round would phase-lock the
		// drops onto the same message every round and no ARQ could ever
		// progress — a hazard of deterministic loss, not of go-back-N.
		RxDropEvery: 7,
	}
	var procs [2]*Proc
	var adapters [2]*nic.SimATM
	for i := 0; i < 2; i++ {
		node := eng.NewNode(fmt.Sprintf("n%d", i))
		a := nic.NewSimATM(node, net, i, nicCfg)
		adapters[i] = a
		procs[i] = New(Config{
			ID:       ProcID(i),
			RT:       node.RT(),
			Endpoint: a,
			Error:    NewGoBackN(4, 5*time.Millisecond),
		})
	}
	const msgs = 12
	const burst = time.Millisecond
	var got []int
	var computed time.Duration
	procs[0].TCreate("sender", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < msgs; k++ {
			// Multi-chunk messages so drops hit interior frames too.
			payload := make([]byte, 5000)
			payload[0] = byte(k)
			th.Send(0, 1, payload)
		}
	})
	procs[1].TCreate("recv", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < msgs; k++ {
			data, _ := th.Recv(Any, Any)
			got = append(got, int(data[0]))
		}
		start := eng.Now()
		th.Compute(burst, func() { t.Error("modeled compute ran its real work") })
		computed = eng.Now().Sub(start)
	})
	eng.Run()
	if len(got) != msgs {
		t.Fatalf("delivered %d of %d", len(got), msgs)
	}
	// The burst holds the CPU for its length; the system threads' own
	// charges may run before the thread resumes, never inside the burst.
	if computed < burst {
		t.Errorf("a %v compute burst advanced virtual time by %v", burst, computed)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken at %d: %v", i, got)
		}
	}
	if adapters[1].RxDropped() == 0 && adapters[0].RxDropped() == 0 {
		t.Fatal("fault injection dropped nothing — test proves nothing")
	}
}

// TestGiveUpObserved: a default-configured proc whose peer exits without
// ever acknowledging (it runs no error control) gives up on its last message
// under either discipline, counts it in Abandoned and terminates without a
// panic. With a recording OnException installed, the observer sees one
// report per give-up.
func TestGiveUpObserved(t *testing.T) {
	for _, tc := range []struct {
		name      string
		mk        func() ErrorControl
		abandoned func(ErrorControl) int64
	}{
		{"go-back-n", func() ErrorControl {
			g := NewGoBackN(4, 5*time.Millisecond)
			g.MaxRetries = 2
			return g
		}, func(ec ErrorControl) int64 { return ec.(*GoBackN).Abandoned() }},
		{"selective-repeat", func() ErrorControl {
			s := NewSelectiveRepeat(4, 5*time.Millisecond)
			s.MaxRetries = 2
			return s
		}, func(ec ErrorControl) int64 { return ec.(*SelectiveRepeat).Abandoned() }},
	} {
		for _, observe := range []bool{false, true} {
			tc, observe := tc, observe
			t.Run(fmt.Sprintf("%s/observer=%v", tc.name, observe), func(t *testing.T) {
				procs := realCluster(t, 2, transport.NewMem(), nil)
				tx := procs[0].Open(1, ChannelConfig{ID: 1, Error: tc.mk()})
				rx := procs[1].Open(0, ChannelConfig{ID: 1})
				var reports []error
				if observe {
					procs[0].OnException(func(err error) { reports = append(reports, err) })
				}
				procs[0].TCreate("tx", mts.PrioDefault, func(th *Thread) {
					if err := tx.Send(th, 0, []byte("last")); err != nil {
						t.Errorf("send: %v", err)
					}
				})
				procs[1].TCreate("rx", mts.PrioDefault, func(th *Thread) { rx.Recv(th, Any) })
				runReal(procs)
				n := tc.abandoned(tx.Error())
				if n < 1 {
					t.Fatalf("Abandoned() = %d, want >= 1", n)
				}
				if observe && int64(len(reports)) != n {
					t.Fatalf("observer saw %d reports for %d give-ups: %v", len(reports), n, reports)
				}
			})
		}
	}
}
