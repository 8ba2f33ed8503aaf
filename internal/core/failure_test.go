package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mts"
	"repro/internal/trace"
	"repro/internal/transport"
)

// recoverErr runs fn and returns the error it panicked with — the typed
// cause a doomed receive or a failed Group op unwinds its thread with — or
// nil if fn returned normally. A non-error panic value propagates.
func recoverErr(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if err, ok = r.(error); !ok {
				panic(r)
			}
		}
	}()
	fn()
	return nil
}

// recoverDead is recoverErr narrowed to *PeerDeadError. Any other panic
// propagates (and fails the test loudly, which is what we want for an
// unexpected failure mode).
func recoverDead(fn func()) (pd *PeerDeadError) {
	if err := recoverErr(fn); err != nil && !errors.As(err, &pd) {
		panic(err)
	}
	return pd
}

// hbCfg is the standard fast test detector: worst-case declaration at
// (Misses+1)*Interval = 30ms.
func hbCfg() Heartbeat { return Heartbeat{Interval: 10 * time.Millisecond, Misses: 2} }

// TestPeerCrashFaultUnblocksRecv is the tentpole end to end in real mode:
// two procs exchange a rendezvous, the carrier kills one, and every
// targeted receive parked on the dead peer unblocks with a typed
// *PeerDeadError on both sides — the killed proc's detector also declares
// the (now unreachable) survivor dead, so a crashed host's own threads are
// released too. Lifecycle ledgers stay balanced and the failure decisions
// land on the trace recorder's fail row.
func TestPeerCrashFaultUnblocksRecv(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		lanes := lanes
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			mem := transport.NewMem()
			var rec *trace.Recorder
			procs := sigCluster(t, 2, mem, func(i int, cfg *Config) {
				cfg.SendLanes, cfg.RecvLanes = lanes, lanes
				cfg.Heartbeat = hbCfg()
				if i == 0 {
					rec = trace.NewRecorder(cfg.RT.Clock())
					cfg.Tracer, cfg.TraceName = rec, "p0"
				}
			})
			ready := make(chan struct{})
			var obsErr, vicErr *PeerDeadError
			procs[0].TCreate("obs", mts.PrioDefault, func(th *Thread) {
				th.Recv(Any, 1)             // hello
				th.Send(0, 1, []byte{0xAC}) // ack: both directions now have channels
				close(ready)
				obsErr = recoverDead(func() { th.Recv(Any, 1) })
			})
			procs[1].TCreate("victim", mts.PrioDefault, func(th *Thread) {
				th.Send(0, 0, []byte("hello"))
				vicErr = recoverDead(func() {
					th.Recv(Any, 0) // ack
					th.Recv(Any, 0) // parks forever: proc 1 is about to die
				})
			})
			go func() {
				<-ready
				mem.KillHost(1)
			}()
			runReal(procs)
			if obsErr == nil || obsErr.Peer != 1 || obsErr.Local != 0 {
				t.Fatalf("survivor recv error = %v, want PeerDeadError{0->1}", obsErr)
			}
			if obsErr.Missed < 2 {
				t.Errorf("survivor error missed = %d, want >= Misses", obsErr.Missed)
			}
			if vicErr == nil || vicErr.Peer != 0 {
				t.Fatalf("victim recv error = %v, want PeerDeadError{1->0}", vicErr)
			}
			if pd := procs[0].PeerDead(1); pd == nil {
				t.Error("survivor PeerDead(1) = nil after declaration")
			}
			for i, p := range procs {
				if leaks := p.Leaks(); len(leaks) != 0 {
					t.Errorf("proc %d leaks: %v", i, leaks)
				}
			}
			tl := rec.Timeline("p0/fail")
			if tl == nil {
				t.Fatal("no p0/fail timeline recorded")
			}
			var miss, dead, forced bool
			for _, m := range tl.Marks {
				miss = miss || strings.HasPrefix(m.Label, "beat-miss p1")
				dead = dead || m.Label == "peer-dead p1"
				forced = forced || strings.HasPrefix(m.Label, "force-close")
			}
			if !miss || !dead || !forced {
				t.Errorf("fail marks missing: beat-miss=%v peer-dead=%v force-close=%v (marks %v)",
					miss, dead, forced, tl.Marks)
			}
		})
	}
}

// TestPeerCrashFaultFailsGatedSends: sends parked behind a flow-control
// window toward a peer that dies are failed through the drain machinery —
// the sender's thread unblocks and each failed Send returns the typed cause
// rather than losing it.
func TestPeerCrashFaultFailsGatedSends(t *testing.T) {
	mem := transport.NewMem()
	procs := sigCluster(t, 2, mem, func(i int, cfg *Config) {
		cfg.Heartbeat = hbCfg()
		if i == 1 {
			cfg.OnAccept = func(c *Channel) {
				c.Proc().TCreate("serve", mts.PrioDefault, func(th *Thread) {
					c.Send(th, c.PeerThread(), []byte{1}) // announce, then consume nothing
					recoverDead(func() { th.Recv(Any, 0) })
				})
			}
		}
	})
	var openErr error
	var sendErrs []error
	sent := -1
	procs[0].TCreate("dial", mts.PrioDefault, func(th *Thread) {
		ch, err := procs[0].OpenCall(th, 1, CallConfig{Flow: NewWindowFlow(1)})
		if err != nil {
			openErr = err
			return
		}
		srv := dialRendezvous(th, ch)
		// The host dies before the first gated send, by construction: the
		// sends cannot all complete ahead of the kill however fast a
		// credit comes back.
		mem.KillHost(1)
		for k := 0; k < 4; k++ {
			// Message 1 fills the window; the rest park on the flow gate
			// until the failure sweep fails them and unblocks this thread.
			if err := ch.Send(th, srv, []byte{byte(k)}); err != nil {
				sendErrs = append(sendErrs, err)
			}
			sent = k
			if procs[0].PeerDead(1) != nil {
				return
			}
		}
	})
	runReal(procs)
	if openErr != nil {
		t.Fatalf("OpenCall: %v", openErr)
	}
	if sent < 1 {
		t.Fatalf("sender unblocked after %d sends, want >= 1 (gated sends must fail, not hang)", sent+1)
	}
	if len(sendErrs) == 0 {
		t.Fatal("no gated send returned an error")
	}
	for _, err := range sendErrs {
		var pd *PeerDeadError
		if !errors.As(err, &pd) || pd.Peer != 1 {
			t.Fatalf("gated send returned %v, want *PeerDeadError for proc 1", err)
		}
	}
	if leaks := procs[0].Leaks(); len(leaks) != 0 {
		t.Errorf("caller leaks: %v", leaks)
	}
}

// TestPeerCrashFaultMidCollective: a group member dies while the root is
// collecting a Gather. The root's blocked collect unblocks with the typed
// error, and so does the root's Bcast after it, which cannot send to the
// dead member; the surviving leaf completes its part untouched.
func TestPeerCrashFaultMidCollective(t *testing.T) {
	const n, victim = 3, 2
	mem := transport.NewMem()
	procs := sigCluster(t, n, mem, func(i int, cfg *Config) {
		cfg.Heartbeat = hbCfg()
	})
	members := collGroup(n)
	var wg sync.WaitGroup
	wg.Add(1)
	var rootErr, bcastErr *PeerDeadError
	for i := 0; i < n; i++ {
		i := i
		procs[i].TCreate("m", mts.PrioDefault, func(th *Thread) {
			g := procs[i].NewGroup(members, GroupConfig{})
			g.Barrier(th) // warm every member channel so the detector monitors them
			switch i {
			case victim:
				wg.Done() // crash point: the carrier kills this proc now
			case 0:
				rootErr = recoverDead(func() { g.Gather(th, 0, []byte{byte(i)}) })
				bcastErr = recoverDead(func() { g.Bcast(th, 0, []byte("after")) })
			default:
				g.Gather(th, 0, []byte{byte(i)})
			}
		})
	}
	go func() {
		wg.Wait()
		mem.KillHost(victim)
	}()
	runReal(procs)
	if rootErr == nil || rootErr.Peer != victim {
		t.Fatalf("root gather error = %v, want PeerDeadError for proc %d", rootErr, victim)
	}
	if bcastErr == nil || bcastErr.Peer != victim {
		t.Fatalf("root bcast error = %v, want PeerDeadError for proc %d", bcastErr, victim)
	}
	if procs[0].PeerDead(victim) == nil {
		t.Error("root PeerDead(victim) = nil")
	}
	for _, i := range []int{0, 1} {
		if leaks := procs[i].Leaks(); len(leaks) != 0 {
			t.Errorf("proc %d leaks: %v", i, leaks)
		}
	}
}

// TestBarrierAfterPeerDeath: a Barrier that a member's death unwinds with
// *PeerDeadError leaves the group usable, so the survivors' next Barrier
// fails the same typed way (it panicked with a plain string while a guard
// flag, set for the first Barrier, was never cleared on the unwind).
func TestBarrierAfterPeerDeath(t *testing.T) {
	const n, victim = 3, 2
	mem := transport.NewMem()
	procs := sigCluster(t, n, mem, func(i int, cfg *Config) {
		cfg.Heartbeat = hbCfg()
	})
	members := collGroup(n)
	var wg sync.WaitGroup
	wg.Add(1)
	errs := make([][2]*PeerDeadError, n)
	for i := 0; i < n; i++ {
		i := i
		procs[i].TCreate("m", mts.PrioDefault, func(th *Thread) {
			g := procs[i].NewGroup(members, GroupConfig{})
			g.Barrier(th) // warm every member channel so the detector monitors them
			if i == victim {
				wg.Done() // crash point: the carrier kills this proc now
				return
			}
			for k := range errs[i] {
				errs[i][k] = recoverDead(func() { g.Barrier(th) })
			}
		})
	}
	go func() {
		wg.Wait()
		mem.KillHost(victim)
	}()
	runReal(procs)
	for _, i := range []int{0, 1} {
		for k, err := range errs[i] {
			if err == nil || err.Peer != victim {
				t.Errorf("proc %d barrier %d: error = %v, want PeerDeadError for proc %d", i, k+1, err, victim)
			}
		}
	}
}

// TestPeerCrashFaultMidSetup: the callee dies before the SETUP handshake
// can complete. The failure detector (armed by OpenCall's own channel
// entry) outruns the setup retry budget, so the caller gets a fail-fast
// *OpenError with CausePeerDead instead of burning the full timeout
// ladder.
func TestPeerCrashFaultMidSetup(t *testing.T) {
	mem := transport.NewMem()
	procs := sigCluster(t, 2, mem, func(i int, cfg *Config) {
		cfg.Heartbeat = Heartbeat{Interval: 5 * time.Millisecond, Misses: 2}
	})
	mem.KillHost(1) // dead before the first SETUP
	var openErr error
	procs[0].TCreate("dial", mts.PrioDefault, func(th *Thread) {
		_, openErr = procs[0].OpenCall(th, 1, CallConfig{
			SetupTimeout: 50 * time.Millisecond,
			Retries:      5,
		})
	})
	procs[1].TCreate("noop", mts.PrioDefault, func(th *Thread) {})
	runReal(procs)
	var oe *OpenError
	if !errors.As(openErr, &oe) || oe.Cause != CausePeerDead {
		t.Fatalf("OpenCall error = %v, want *OpenError{CausePeerDead}", openErr)
	}
	if procs[0].PeerDead(1) == nil {
		t.Error("caller PeerDead(1) = nil")
	}
	if leaks := procs[0].Leaks(); len(leaks) != 0 {
		t.Errorf("caller leaks: %v", leaks)
	}
}

// TestPartitionHealReopen: a partition splits an in-flight call, both
// sides observe the typed death, the fabric heals, and the caller's OpenCall
// retry loop re-establishes a fresh signaled channel (the SETUP
// clean-slates the callee's dead-peer record). The second call then runs
// to a clean close.
func TestPartitionHealReopen(t *testing.T) {
	mem := transport.NewMem()
	procs := sigCluster(t, 2, mem, func(i int, cfg *Config) {
		cfg.Heartbeat = hbCfg()
		if i == 1 {
			cfg.OnAccept = func(c *Channel) {
				c.Proc().TCreate("serve", mts.PrioDefault, func(th *Thread) {
					opener := c.PeerThread()
					c.Send(th, opener, []byte{1}) // announce
					if pd := recoverDead(func() { c.Recv(th, Any) }); pd != nil {
						return // partition victim
					}
					c.Send(th, opener, []byte{2}) // served
				})
			}
		}
	})
	cut := make(chan struct{})
	var firstErr *PeerDeadError
	var reopenErr, closeErr error
	var served []byte
	procs[0].TCreate("dial", mts.PrioDefault, func(th *Thread) {
		defer th.Send(0, 1, []byte("bye"))
		ch, err := procs[0].OpenCall(th, 1, CallConfig{})
		if err != nil {
			reopenErr = fmt.Errorf("first open: %w", err)
			return
		}
		srv := dialRendezvous(th, ch)
		close(cut) // partition lands while both ends are mid-call
		firstErr = recoverDead(func() { ch.Recv(th, srv) })
		// Each failed attempt spends its SETUP budget (or is cut short by
		// the detector), which paces the loop across the 60ms partition.
		var ch2 *Channel
		for attempt := 0; attempt < 20; attempt++ {
			if ch2, err = procs[0].OpenCall(th, 1, CallConfig{
				SetupTimeout: 5 * time.Millisecond,
				Retries:      2,
			}); err == nil {
				break
			}
		}
		if err != nil {
			reopenErr = err
			return
		}
		srv2 := dialRendezvous(th, ch2)
		ch2.Send(th, srv2, []byte{9})
		served, _ = ch2.Recv(th, Any)
		closeErr = ch2.CloseCall(th)
	})
	procs[1].TCreate("keeper", mts.PrioDefault, func(th *Thread) {
		// A wildcard-source receive survives the failure sweep by design:
		// it keeps the callee open across the partition until the bye.
		th.Recv(Any, Any)
	})
	go func() {
		<-cut
		mem.Partition(0, 1)
		time.Sleep(60 * time.Millisecond)
		mem.Heal(0, 1)
	}()
	runReal(procs)
	if firstErr == nil || firstErr.Peer != 1 {
		t.Fatalf("partitioned recv error = %v, want PeerDeadError{0->1}", firstErr)
	}
	if reopenErr != nil {
		t.Fatalf("OpenCall after heal: %v", reopenErr)
	}
	if closeErr != nil {
		t.Fatalf("CloseCall on reopened channel: %v", closeErr)
	}
	if pd := procs[1].PeerDead(0); pd != nil {
		t.Errorf("callee still records the caller dead after its SETUP: %v", pd)
	}
	if len(served) != 1 || served[0] != 2 {
		t.Fatalf("served reply = %v, want [2]", served)
	}
	for i, p := range procs {
		if leaks := p.Leaks(); len(leaks) != 0 {
			t.Errorf("proc %d leaks: %v", i, leaks)
		}
		st := p.Lifecycle()
		if st.Opened != 2 || st.Closed != 2 {
			t.Errorf("proc %d: opened %d closed %d, want 2/2 (force-close + clean close)",
				i, st.Opened, st.Closed)
		}
	}
}

// vmeshCrashRun executes one deterministic virtual-time kill: an 8-proc
// bidirectional ring with seeded payloads, host `victim` killed at a fixed
// virtual instant, the victim and its downstream neighbor parked on
// receives only the failure sweep can end. Returns the timeline hash and
// the count of typed deaths observed.
func vmeshCrashRun(t *testing.T, seed int64) (string, int) {
	t.Helper()
	const (
		n      = 8
		victim = 3
		msgs   = 3
	)
	vm := NewVirtualMesh(n, seed, VirtualMeshConfig{
		Heartbeat: Heartbeat{Interval: 500 * time.Microsecond, Misses: 2},
		MaxTime:   time.Second,
	})
	vm.Eng.Schedule(2*time.Millisecond, func() { vm.Net.KillHost(victim) })
	typed := 0 // engine goroutine only: no lock needed
	for i := 0; i < n; i++ {
		i := i
		vm.Procs[i].TCreate("w", mts.PrioDefault, func(th *Thread) {
			if pd := recoverDead(func() {
				rng := vm.Rand(int64(i))
				next := ProcID((i + 1) % n)
				prev := ProcID((i + n - 1) % n)
				for k := 0; k < msgs; k++ {
					th.Send(0, next, make([]byte, 64+rng.Intn(1024)))
					th.Send(0, prev, make([]byte, 64+rng.Intn(1024)))
				}
				for k := 0; k < 2*msgs; k++ {
					th.Recv(Any, Any)
				}
				// The victim and its downstream neighbor then park on a
				// receive that only the failure sweep can end.
				if i == victim {
					th.Recv(Any, prev)
				} else if i == (victim+1)%n {
					th.Recv(Any, ProcID(victim))
				}
			}); pd != nil {
				typed++
			}
		})
	}
	vm.Run()
	for i, p := range vm.Procs {
		if leaks := p.Leaks(); len(leaks) != 0 {
			t.Errorf("seed %d proc %d leaks: %v", seed, i, leaks)
		}
	}
	if pd := vm.Procs[(victim+1)%n].PeerDead(victim); pd == nil {
		t.Errorf("seed %d: neighbor never declared proc %d dead", seed, victim)
	}
	return vm.TimelineHash(), typed
}

// TestVirtualMeshPeerCrash: the kill suite is deterministic — same seed,
// byte-identical timeline hash across reruns; a different seed diverges.
// Detection, teardown, and sweep order are all on the virtual clock.
func TestVirtualMeshPeerCrash(t *testing.T) {
	h1, typed1 := vmeshCrashRun(t, 7)
	h2, typed2 := vmeshCrashRun(t, 7)
	h3, _ := vmeshCrashRun(t, 9)
	if h1 != h2 {
		t.Fatalf("same-seed kill runs diverged:\n  %s\n  %s", h1, h2)
	}
	if typed1 != typed2 {
		t.Fatalf("same-seed typed-death counts diverged: %d vs %d", typed1, typed2)
	}
	if typed1 != 2 {
		t.Errorf("typed deaths = %d, want 2 (victim + downstream neighbor)", typed1)
	}
	if h1 == h3 {
		t.Errorf("different seeds produced the same timeline hash %s", h1)
	}
}

// TestFaultChaosSeeds is the real-mode -race chaos run: three seeds, four
// procs under full-mesh seeded traffic, the victim killed mid-stream. Every
// thread — survivors flooding the dead peer, and the victim's own — must
// unblock with the typed error, and every ledger must balance.
func TestFaultChaosSeeds(t *testing.T) {
	for _, seed := range []int64{1, 42, 1995} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const n, victim = 4, 3
			mem := transport.NewMem()
			procs := sigCluster(t, n, mem, func(i int, cfg *Config) {
				cfg.Heartbeat = hbCfg()
			})
			var warm sync.WaitGroup
			warm.Add(n)
			deaths := make([]*PeerDeadError, n)
			for i := 0; i < n; i++ {
				i := i
				rng := vmRand(seed, int64(i))
				procs[i].TCreate("w", mts.PrioDefault, func(th *Thread) {
					for j := 0; j < n; j++ { // full-mesh warmup: every pair monitored
						if j != i {
							th.Send(0, ProcID(j), []byte{byte(i)})
						}
					}
					for j := 0; j < n-1; j++ {
						th.Recv(Any, Any)
					}
					warm.Done()
					deaths[i] = recoverDead(func() {
						if i == victim {
							for {
								th.Recv(Any, 0)
							}
						}
						// Burst at the dying peer (fast-path sends racing
						// the kill), then park on a receive only the
						// failure sweep can end. The park also yields the
						// cooperative scheduler so detector ticks run.
						for k := 0; k < 8; k++ {
							th.Send(0, victim, make([]byte, 1+rng.Intn(512)))
						}
						th.Recv(Any, victim)
					})
				})
			}
			go func() {
				warm.Wait()
				mem.KillHost(victim)
			}()
			runReal(procs)
			for i := 0; i < n; i++ {
				if deaths[i] == nil {
					t.Fatalf("proc %d never saw a typed death", i)
				}
				if i != victim && deaths[i].Peer != victim {
					t.Errorf("proc %d death peer = %d, want %d", i, deaths[i].Peer, victim)
				}
				if leaks := procs[i].Leaks(); len(leaks) != 0 {
					t.Errorf("proc %d leaks: %v", i, leaks)
				}
			}
		})
	}
}

// vmRand mirrors VirtualMesh.Rand's stream split for real-mode chaos
// workloads: seed x stream, deterministic per (seed, proc).
func vmRand(seed, stream int64) *rng { return newRng(uint64(seed)<<20 ^ uint64(stream)) }

// rng is a tiny splitmix64 stream: the chaos test only needs cheap,
// dependency-free, per-proc deterministic payload sizes.
type rng struct{ s uint64 }

func newRng(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) Intn(n int) int {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}
