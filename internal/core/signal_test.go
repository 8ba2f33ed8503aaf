package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/mts"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/transport"
)

// sigCluster builds n real-mode procs over mem with a per-proc Config hook
// (admission policies, accept hooks, lane counts). Lanes default to 4 (the
// goroutine driver); set SendLanes/RecvLanes to 1 in mod for the thread
// driver.
func sigCluster(t *testing.T, n int, mem *transport.Mem, mod func(i int, cfg *Config)) []*Proc {
	t.Helper()
	procs := make([]*Proc, n)
	for i := 0; i < n; i++ {
		rt := mts.New(mts.Config{Name: fmt.Sprintf("node%d", i), IdleTimeout: 10 * time.Second})
		cfg := Config{
			ID: ProcID(i), RT: rt, Endpoint: mem.Attach(ProcID(i), rt),
			SendLanes: 4, RecvLanes: 4,
		}
		if mod != nil {
			mod(i, &cfg)
		}
		procs[i] = New(cfg)
	}
	return procs
}

// serveCalls is the standard accept hook: every admitted call gets a
// serving thread that announces itself to the opener (message addressing
// is exact-thread, so the caller learns the server's index from the
// announcement's source address), receives msgs messages, and answers one
// "served" byte so the caller can close knowing the callee consumed
// everything. With msgs == 0 the announcement and the served byte
// collapse into a single message.
func serveCalls(msgs int) func(*Channel) {
	return func(c *Channel) {
		c.Proc().TCreate("serve", mts.PrioDefault, func(th *Thread) {
			opener := c.PeerThread()
			if msgs > 0 {
				c.Send(th, opener, []byte{0})
				for k := 0; k < msgs; k++ {
					c.Recv(th, Any)
				}
			}
			c.Send(th, opener, []byte{1})
		})
	}
}

// dialRendezvous consumes the serve thread's announcement and returns the
// serving thread's index to address data to.
func dialRendezvous(th *Thread, ch *Channel) int {
	_, from := ch.Recv(th, Any)
	return from.Thread
}

// TestOpenCallLifecycle is the signaled lifecycle end to end, under the
// thread driver (lanes=1) and the goroutine driver (lanes=4) —
// TestEngineMatrix's "callchurn" repeats it over every driver and carrier: a
// signaled call sets up through SETUP/CONNECT, carries windowed
// go-back-N data, closes through RELEASE/RELEASE-COMPLETE, and leaves both
// procs with balanced lifecycle ledgers.
func TestOpenCallLifecycle(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		lanes := lanes
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			const msgs = 16
			mem := transport.NewMem()
			procs := sigCluster(t, 2, mem, func(i int, cfg *Config) {
				cfg.SendLanes, cfg.RecvLanes = lanes, lanes
				if i == 1 {
					cfg.OnAccept = serveCalls(msgs)
				}
			})
			var openErr, closeErr error
			var gotID ChannelID
			var reply []byte
			procs[0].TCreate("dial", mts.PrioDefault, func(th *Thread) {
				ch, err := procs[0].OpenCall(th, 1, CallConfig{
					Priority: 3,
					Flow:     NewWindowFlow(4),
					Error:    NewGoBackN(8, 50*time.Millisecond),
				})
				if err != nil {
					openErr = err
					th.Send(0, 1, []byte("bye"))
					return
				}
				gotID = ch.ID()
				srv := dialRendezvous(th, ch)
				for k := 0; k < msgs; k++ {
					ch.Send(th, srv, []byte{byte(k)})
				}
				reply, _ = ch.Recv(th, Any)
				closeErr = ch.CloseCall(th)
				th.Send(0, 1, []byte("bye"))
			})
			procs[1].TCreate("keeper", mts.PrioDefault, func(th *Thread) {
				th.Recv(Any, Any) // hold the callee open until the caller says bye
			})
			runReal(procs)
			if openErr != nil {
				t.Fatalf("OpenCall: %v", openErr)
			}
			if closeErr != nil {
				t.Fatalf("CloseCall: %v", closeErr)
			}
			if gotID == 0 {
				t.Fatal("OpenCall handed out channel ID 0")
			}
			if len(reply) != 1 || reply[0] != 1 {
				t.Fatalf("serve reply = %v", reply)
			}
			for i, p := range procs {
				if leaks := p.Leaks(); len(leaks) != 0 {
					t.Errorf("proc %d leaks: %v", i, leaks)
				}
				st := p.Lifecycle()
				if st.Opened != 1 || st.Closed != 1 {
					t.Errorf("proc %d: opened %d closed %d, want 1/1", i, st.Opened, st.Closed)
				}
				if st.VCsBound != 1 || st.VCsReleased != 1 {
					t.Errorf("proc %d: VCs bound %d released %d, want 1/1", i, st.VCsBound, st.VCsReleased)
				}
			}
			if st := procs[0].Lifecycle(); st.SetupsSent != 1 {
				t.Errorf("caller setups sent = %d, want 1", st.SetupsSent)
			}
			if st := procs[1].Lifecycle(); st.SetupsAccepted != 1 || st.SetupsRejected != 0 {
				t.Errorf("callee accepted %d rejected %d, want 1/0", st.SetupsAccepted, st.SetupsRejected)
			}
		})
	}
}

// TestOpenCallBusy: an explicit channel ID already in use between the pair
// fails locally with CauseBusy, before any SETUP goes out.
func TestOpenCallBusy(t *testing.T) {
	mem := transport.NewMem()
	procs := sigCluster(t, 2, mem, func(i int, cfg *Config) {
		if i == 1 {
			cfg.OnAccept = serveCalls(0)
		}
	})
	var dupErr error
	procs[0].TCreate("dial", mts.PrioDefault, func(th *Thread) {
		ch, err := procs[0].OpenCall(th, 1, CallConfig{ID: 7})
		if err != nil {
			t.Errorf("first open: %v", err)
			th.Send(0, 1, nil)
			return
		}
		_, dupErr = procs[0].OpenCall(th, 1, CallConfig{ID: 7})
		ch.Recv(th, Any) // serve ack
		ch.CloseCall(th)
		th.Send(0, 1, nil)
	})
	procs[1].TCreate("keeper", mts.PrioDefault, func(th *Thread) { th.Recv(Any, Any) })
	runReal(procs)
	var oe *OpenError
	if !errors.As(dupErr, &oe) || oe.Cause != CauseBusy || oe.ID != 7 {
		t.Fatalf("duplicate open error = %v, want *OpenError{Cause: busy, ID: 7}", dupErr)
	}
	if st := procs[0].Lifecycle(); st.SetupsSent != 1 {
		t.Fatalf("busy rejection sent %d SETUPs, want 1 (local fail only)", st.SetupsSent)
	}
}

// TestAdmissionTokenBucket: a drained token bucket fails calls fast with
// CauseAdmissionDenied instead of queueing them.
func TestAdmissionTokenBucket(t *testing.T) {
	mem := transport.NewMem()
	procs := sigCluster(t, 2, mem, func(i int, cfg *Config) {
		if i == 1 {
			cfg.Admission = NewTokenBucketAdmission(0.001, 2) // refill ~never within the test
			cfg.OnAccept = serveCalls(0)
		}
	})
	var errs []error
	procs[0].TCreate("dial", mts.PrioDefault, func(th *Thread) {
		defer th.Send(0, 1, nil)
		var open []*Channel
		for k := 0; k < 3; k++ {
			ch, err := procs[0].OpenCall(th, 1, CallConfig{})
			errs = append(errs, err)
			if err == nil {
				open = append(open, ch)
			}
		}
		for _, ch := range open {
			ch.Recv(th, Any)
			ch.CloseCall(th)
		}
	})
	procs[1].TCreate("keeper", mts.PrioDefault, func(th *Thread) { th.Recv(Any, Any) })
	runReal(procs)
	if len(errs) != 3 || errs[0] != nil || errs[1] != nil {
		t.Fatalf("within-burst calls failed: %v", errs)
	}
	var oe *OpenError
	if !errors.As(errs[2], &oe) || oe.Cause != CauseAdmissionDenied {
		t.Fatalf("over-burst call error = %v, want CauseAdmissionDenied", errs[2])
	}
	for i, p := range procs {
		if leaks := p.Leaks(); len(leaks) != 0 {
			t.Errorf("proc %d leaks: %v", i, leaks)
		}
	}
}

// TestOpenCallTimeout: a peer whose SETUPs all vanish (crashed, partitioned)
// costs the caller its retry budget and a typed CauseTimeout — and leaks
// nothing on the caller.
func TestOpenCallTimeout(t *testing.T) {
	mem := transport.NewMem()
	mem.SetDropRate(1.0, 1)
	mem.SetDropClass(func(m *transport.Message) bool { return m.Tag == tagSigSetup })
	procs := sigCluster(t, 2, mem, nil)
	var openErr error
	start := time.Now()
	var took time.Duration
	procs[0].TCreate("dial", mts.PrioDefault, func(th *Thread) {
		_, openErr = procs[0].OpenCall(th, 1, CallConfig{
			SetupTimeout: 2 * time.Millisecond,
			Retries:      2,
			Backoff:      time.Millisecond,
		})
		took = time.Since(start)
		th.Send(0, 1, []byte("bye"))
	})
	procs[1].TCreate("keeper", mts.PrioDefault, func(th *Thread) { th.Recv(Any, Any) })
	runReal(procs)
	var oe *OpenError
	if !errors.As(openErr, &oe) || oe.Cause != CauseTimeout || oe.Attempts != 2 {
		t.Fatalf("open error = %v, want CauseTimeout after 2 attempts", openErr)
	}
	if took > 2*time.Second {
		t.Fatalf("timeout took %v: retry budget did not bound the wait", took)
	}
	if st := procs[0].Lifecycle(); st.SetupsSent != 2 || st.SetupRetries != 1 {
		t.Fatalf("caller sent %d SETUPs with %d retries, want 2/1", st.SetupsSent, st.SetupRetries)
	}
	for i, p := range procs {
		if leaks := p.Leaks(); len(leaks) != 0 {
			t.Errorf("proc %d leaks: %v", i, leaks)
		}
	}
}

// TestSendAfterCloseTyped: a send on a closed signaled channel returns the
// same typed *ChannelClosedError regardless of discipline (windowed, rate,
// go-back-N, selective repeat) and driver (thread at lanes=1, goroutine at
// lanes=4), and nothing reaches the give-up observer.
func TestSendAfterCloseTyped(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() CallConfig
	}{
		{"window", func() CallConfig { return CallConfig{Flow: NewWindowFlow(4)} }},
		{"rate", func() CallConfig { return CallConfig{Flow: NewRateFlow(1e6, 8192)} }},
		{"gbn", func() CallConfig { return CallConfig{Error: NewGoBackN(4, 50*time.Millisecond)} }},
		{"sr", func() CallConfig { return CallConfig{Error: NewSelectiveRepeat(4, 50*time.Millisecond)} }},
	}
	for _, lanes := range []int{1, 4} {
		for _, tc := range cases {
			lanes, tc := lanes, tc
			t.Run(fmt.Sprintf("%s/lanes=%d", tc.name, lanes), func(t *testing.T) {
				mem := transport.NewMem()
				procs := sigCluster(t, 2, mem, func(i int, cfg *Config) {
					cfg.SendLanes, cfg.RecvLanes = lanes, lanes
					if i == 1 {
						cfg.OnAccept = serveCalls(1)
					}
				})
				var observed []error
				procs[0].OnException(func(err error) { observed = append(observed, err) })
				var sendErr error
				var sendReturned bool
				var chID ChannelID
				procs[0].TCreate("dial", mts.PrioDefault, func(th *Thread) {
					defer th.Send(0, 1, nil)
					ch, err := procs[0].OpenCall(th, 1, tc.cfg())
					if err != nil {
						t.Errorf("open: %v", err)
						return
					}
					chID = ch.ID()
					srv := dialRendezvous(th, ch)
					ch.Send(th, srv, []byte("payload"))
					ch.Recv(th, Any)
					if err := ch.CloseCall(th); err != nil {
						t.Errorf("close: %v", err)
						return
					}
					sendErr = ch.Send(th, 0, []byte("too late"))
					sendReturned = true
				})
				procs[1].TCreate("keeper", mts.PrioDefault, func(th *Thread) { th.Recv(Any, Any) })
				runReal(procs)
				if !sendReturned {
					t.Fatal("send after close did not return")
				}
				var cce *ChannelClosedError
				if !errors.As(sendErr, &cce) {
					t.Fatalf("send after close returned %v, want *ChannelClosedError", sendErr)
				}
				if cce.ID != chID || cce.Peer != 1 || cce.Local != 0 {
					t.Fatalf("ChannelClosedError fields = %+v, want Local 0 Peer 1 ID %d", cce, chID)
				}
				if len(observed) != 0 {
					t.Fatalf("give-up observer saw %v", observed)
				}
			})
		}
	}
}

// TestSignaledCallOverSimATM runs the signaled lifecycle above the
// simulated FORE adapter on a switched NYNET LAN: connecting a call must
// install the per-channel VC routes (without them the switch discards
// every data cell), releasing must remove them, and a re-dial of the same
// channel ID must install fresh routes. This is the carrier half of the
// paper's one-VC-per-channel model exercised end to end.
func TestSignaledCallOverSimATM(t *testing.T) {
	const msgs = 6
	eng := sim.NewEngine()
	eng.SetMaxTime(time.Hour)
	net := netsim.NewATMLAN(eng, 2, netsim.ATMLANConfig{HostLinkBps: 100e6})
	nicCfg := nic.Config{
		NumBuffers:      4,
		BufferSize:      2048,
		TrapCost:        10 * time.Microsecond,
		HostCopyPerByte: 100 * time.Nanosecond,
	}
	var procs [2]*Proc
	for i := 0; i < 2; i++ {
		i := i
		node := eng.NewNode(fmt.Sprintf("n%d", i))
		a := nic.NewSimATM(node, net, i, nicCfg)
		cfg := Config{
			ID:       ProcID(i),
			RT:       node.RT(),
			Endpoint: a,
		}
		if i == 1 {
			cfg.OnAccept = serveCalls(msgs)
		}
		procs[i] = New(cfg)
	}
	var rounds int
	procs[1].TCreate("keeper", mts.PrioDefault, func(th *Thread) { th.Recv(Any, Any) })
	procs[0].TCreate("dial", mts.PrioDefault, func(th *Thread) {
		defer th.Send(0, 1, []byte("bye"))
		// Two full dial/transfer/close rounds on the same explicit ID: the
		// second proves RemoveChannelRoute left the switch reusable.
		for round := 0; round < 2; round++ {
			ch, err := procs[0].OpenCall(th, 1, CallConfig{
				ID:    5,
				Error: NewGoBackN(4, 5*time.Millisecond),
			})
			if err != nil {
				t.Errorf("round %d open: %v", round, err)
				return
			}
			srv := dialRendezvous(th, ch)
			for k := 0; k < msgs; k++ {
				ch.Send(th, srv, make([]byte, 3000)) // multi-chunk, multi-cell
			}
			ch.Recv(th, Any)
			if err := ch.CloseCall(th); err != nil {
				t.Errorf("round %d close: %v", round, err)
				return
			}
			rounds++
		}
	})
	eng.Run()
	if rounds != 2 {
		t.Logf("caller %+v", procs[0].Lifecycle())
		t.Logf("callee %+v", procs[1].Lifecycle())
		t.Logf("switch dropped %d", net.Switches()[0].Dropped())
		t.Fatalf("completed %d rounds, want 2", rounds)
	}
	// Every data cell must have found a route: per-call install beat the
	// traffic, and removal never raced a live transfer.
	if d := net.Switches()[0].Dropped(); d != 0 {
		t.Fatalf("switch dropped %d cells: per-call VC routes missing or removed early", d)
	}
	for i, p := range procs {
		if leaks := p.Leaks(); len(leaks) != 0 {
			t.Errorf("proc %d leaks: %v", i, leaks)
		}
	}
	st := procs[0].Lifecycle()
	if st.Opened != 2 || st.Closed != 2 || st.VCsBound != 2 || st.VCsReleased != 2 {
		t.Fatalf("caller lifecycle %+v, want 2 opens/closes and 2 VC bind/release pairs", st)
	}
}
