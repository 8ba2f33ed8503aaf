package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/mts"
	"repro/internal/transport"
)

// Channel churn: the lifecycle under sustained open/transfer/close cycling.
// TestChurnVirtual runs 1024 cycles on one deterministic event loop and
// pins the timeline hash; TestChurnChaosReal runs >1000 cycles across three
// seeds over a 20% lossy carrier with real goroutines. Both demand zero
// leaked lifecycle state at quiesce.

// churnServe is the accept hook for churn workloads: announce, receive
// msgs sequence-stamped payloads checking exactly-once in-order delivery,
// answer served.
func churnServe(t *testing.T, msgs int) func(*Channel) {
	return func(c *Channel) {
		c.Proc().TCreate("serve", mts.PrioDefault, func(th *Thread) {
			opener := c.PeerThread()
			c.Send(th, opener, []byte{0})
			for k := 0; k < msgs; k++ {
				data, _ := c.Recv(th, Any)
				if len(data) < 1 || data[0] != byte(k) {
					t.Errorf("proc %d channel %d: delivery %d has seq %d — duplicate or reorder",
						c.Proc().ID(), c.ID(), k, data[0])
				}
			}
			c.Send(th, opener, []byte{1})
		})
	}
}

// churnDial runs one dialer's cycles against peer: open (retrying typed
// admission rejections), rendezvous, send msgs sequence-stamped payloads
// with rng-drawn sizes, collect the served ack, close. Returns how many
// opens were rejected before admission.
func churnDial(t *testing.T, th *Thread, p *Proc, peer ProcID, cycles, msgs int, rng *rand.Rand) int {
	rejected := 0
	for cyc := 0; cyc < cycles; cyc++ {
		var ch *Channel
		for attempt := 0; ; attempt++ {
			c, err := p.OpenCall(th, peer, CallConfig{
				Flow:  NewWindowFlow(4),
				Error: NewGoBackN(8, 2*time.Millisecond),
			})
			if err == nil {
				ch = c
				break
			}
			var oe *OpenError
			if !errors.As(err, &oe) || oe.Cause != CauseAdmissionDenied {
				t.Errorf("proc %d cycle %d: open failed with %v", p.ID(), cyc, err)
				return rejected
			}
			rejected++
			if attempt > 2000 {
				t.Errorf("proc %d cycle %d: starved after %d rejections", p.ID(), cyc, attempt)
				return rejected
			}
		}
		srv := dialRendezvous(th, ch)
		for k := 0; k < msgs; k++ {
			buf := make([]byte, 1+64+rng.Intn(192))
			buf[0] = byte(k)
			ch.Send(th, srv, buf)
		}
		ch.Recv(th, Any) // served
		if err := ch.CloseCall(th); err != nil {
			t.Errorf("proc %d cycle %d: close failed: %v", p.ID(), cyc, err)
			return rejected
		}
	}
	return rejected
}

// buildChurnMesh constructs an n-proc virtual-time ring-churn mesh:
// every proc dials its successor for cycles short-lived calls through a
// shared token-bucket admission policy tight enough (burst 8 against 16
// simultaneous first dials) that rejections are guaranteed. Each proc's
// keeper thread holds it open until its predecessor finishes dialing.
func buildChurnMesh(t *testing.T, n, cycles, msgs int, seed int64) *VirtualMesh {
	vm := NewVirtualMesh(n, seed, VirtualMeshConfig{
		Lanes:     2,
		Admission: NewTokenBucketAdmission(20000, 8),
		OnAccept:  churnServe(t, msgs),
	})
	for i := 0; i < n; i++ {
		i := i
		p := vm.Procs[i]
		p.TCreate("keeper", mts.PrioDefault, func(th *Thread) { th.Recv(Any, Any) })
		p.TCreate("dial", mts.PrioDefault, func(th *Thread) {
			peer := ProcID((i + 1) % n)
			churnDial(t, th, p, peer, cycles, msgs, vm.Rand(int64(i)))
			th.Send(0, peer, []byte("bye")) // release the peer's keeper
		})
	}
	return vm
}

// TestChurnVirtual: 16 procs × 64 signaled calls each — 1024 full
// open/transfer/close cycles — on the virtual-time mesh. Admission
// pressure must produce typed rejections, every proc must quiesce with
// zero leaked lifecycle state (including the virtual-only timer and
// ring balances), and a second run from the same seed must reproduce the
// timeline hash bit for bit.
func TestChurnVirtual(t *testing.T) {
	const n, cycles, msgs = 16, 64, 2
	run := func() (*VirtualMesh, string) {
		vm := buildChurnMesh(t, n, cycles, msgs, 1995)
		vm.Run()
		return vm, vm.TimelineHash()
	}
	vm, hash := run()
	var opened, closed, rejected int64
	for i, p := range vm.Procs {
		if leaks := p.Leaks(); len(leaks) != 0 {
			t.Errorf("proc %d leaks after churn: %v", i, leaks)
		}
		st := p.Lifecycle()
		opened += st.Opened
		closed += st.Closed
		rejected += st.SetupsRejected
		// Leaks checked the ring ledger; it must also have counted something.
		if st.RingPushed == 0 {
			t.Errorf("proc %d: ring ledger counted no pushes (drained %d)", i, st.RingDrained)
		}
	}
	// Every cycle opens on both ends (caller and callee each count one).
	if want := int64(2 * n * cycles); opened != want || closed != want {
		t.Errorf("opened %d closed %d, want %d each", opened, closed, want)
	}
	if rejected == 0 {
		t.Error("admission rejected nothing: churn never hit the token bucket")
	}
	t.Logf("churn: %d opens, %d admission rejections, %v virtual time", opened, rejected, vm.Now())

	_, hash2 := run()
	if hash != hash2 {
		t.Fatalf("same-seed churn diverged: %s vs %s", hash, hash2)
	}
}

// TestChurnChaosReal: >1000 short-lived signaled calls across three seeds
// over a carrier dropping 20% of data-channel frames (signaling rides
// channel 0 and stays reliable, like a real SVC band with its own QoS).
// Go-back-N must deliver exactly-once in-order on every surviving channel,
// and every close must still drain and finalize both ends — zero leaks at
// quiesce despite the loss storms.
func TestChurnChaosReal(t *testing.T) {
	const n, cycles, msgs = 4, 84, 3
	for _, seed := range []int64{7, 42, 1995} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			mem := transport.NewMem()
			mem.SetDropRate(0.20, seed)
			mem.SetDropClass(func(m *transport.Message) bool { return m.Channel >= 1 })
			procs := sigCluster(t, n, mem, func(i int, cfg *Config) {
				cfg.OnAccept = churnServe(t, msgs)
			})
			for i := 0; i < n; i++ {
				i := i
				p := procs[i]
				p.TCreate("keeper", mts.PrioDefault, func(th *Thread) { th.Recv(Any, Any) })
				p.TCreate("dial", mts.PrioDefault, func(th *Thread) {
					peer := ProcID((i + 1) % n)
					rng := rand.New(rand.NewSource(seed*31 + int64(i)))
					churnDial(t, th, p, peer, cycles, msgs, rng)
					th.Send(0, peer, []byte("bye"))
				})
			}
			runReal(procs)
			if mem.Dropped() == 0 {
				t.Fatal("carrier dropped nothing; chaos run did not exercise loss")
			}
			var opened, closed int64
			for i, p := range procs {
				if leaks := p.Leaks(); len(leaks) != 0 {
					t.Errorf("proc %d leaks after chaos churn: %v", i, leaks)
				}
				st := p.Lifecycle()
				opened += st.Opened
				closed += st.Closed
				// Real mode: a frame that reached a lane after its engine
				// stopped stays in the ring, and is all the ledger may miss.
				var left int64
				for _, ln := range p.lanes {
					if ln.rx != nil {
						left += int64(ln.rx.Len())
					}
				}
				if st.RingPushed == 0 || st.RingPushed != st.RingDrained+left {
					t.Errorf("proc %d: ring pushed %d, drained %d, %d left in the rings", i, st.RingPushed, st.RingDrained, left)
				}
			}
			if want := int64(2 * n * cycles); opened != want || closed != want {
				t.Errorf("opened %d closed %d, want %d each", opened, closed, want)
			}
			t.Logf("chaos churn: %d opens over carrier that dropped %d frames", opened, mem.Dropped())
		})
	}
}
