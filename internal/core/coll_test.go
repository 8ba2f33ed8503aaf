package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/mts"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// collGroup builds the standard one-thread-per-proc member list.
func collGroup(n int) []Addr {
	members := make([]Addr, n)
	for i := range members {
		members[i] = Addr{Proc: ProcID(i), Thread: 0}
	}
	return members
}

// TestGroupBcastShapes runs the tree broadcast across member counts
// (power-of-two and not), fanouts (binomial, ternary, linear), and every
// root, verifying every member sees the root's payload.
func TestGroupBcastShapes(t *testing.T) {
	for _, n := range []int{2, 4, 5, 8} {
		for _, fanout := range []int{0, 3, 64} {
			n, fanout := n, fanout
			t.Run(fmt.Sprintf("n=%d/fanout=%d", n, fanout), func(t *testing.T) {
				eng, procs := simCluster(t, n, nil)
				members := collGroup(n)
				got := make([][]string, n)
				for i := 0; i < n; i++ {
					i := i
					procs[i].TCreate("m", mts.PrioDefault, func(th *Thread) {
						g := procs[i].NewGroup(members, GroupConfig{Fanout: fanout})
						for root := 0; root < n; root++ {
							var data []byte
							if i == root {
								data = []byte(fmt.Sprintf("payload-from-%d", root))
							}
							got[i] = append(got[i], string(g.Bcast(th, root, data)))
						}
					})
				}
				eng.Run()
				for i := 0; i < n; i++ {
					for root := 0; root < n; root++ {
						want := fmt.Sprintf("payload-from-%d", root)
						if got[i][root] != want {
							t.Fatalf("member %d root %d: got %q, want %q", i, root, got[i][root], want)
						}
					}
				}
			})
		}
	}
}

// TestGroupBcastInto pins the pooled variant: payloads land in caller
// buffers and forward down the tree from them.
func TestGroupBcastInto(t *testing.T) {
	const n = 4
	eng, procs := simCluster(t, n, nil)
	members := collGroup(n)
	payload := bytes.Repeat([]byte{0xAB}, 4096)
	ok := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		procs[i].TCreate("m", mts.PrioDefault, func(th *Thread) {
			g := procs[i].NewGroup(members, GroupConfig{})
			buf := make([]byte, len(payload))
			if i == 0 {
				copy(buf, payload)
			}
			ln := g.BcastInto(th, 0, buf)
			ok[i] = ln == len(payload) && bytes.Equal(buf[:ln], payload)
		})
	}
	eng.Run()
	for i, v := range ok {
		if !v {
			t.Fatalf("member %d did not receive the broadcast intact", i)
		}
	}
}

// TestGroupGatherReduce verifies tree gather (payloads indexed by member,
// variable lengths) and tree reduce (commutative fold) for tree and linear
// shapes.
func TestGroupGatherReduce(t *testing.T) {
	for _, fanout := range []int{0, 64} {
		fanout := fanout
		t.Run(fmt.Sprintf("fanout=%d", fanout), func(t *testing.T) {
			const n = 5
			eng, procs := simCluster(t, n, nil)
			members := collGroup(n)
			var gathered [][]byte
			var sum []byte
			for i := 0; i < n; i++ {
				i := i
				procs[i].TCreate("m", mts.PrioDefault, func(th *Thread) {
					g := procs[i].NewGroup(members, GroupConfig{Fanout: fanout})
					own := bytes.Repeat([]byte{byte(10 + i)}, i+1) // distinct lengths
					if res := g.Gather(th, 1, own); i == 1 {
						gathered = res
					}
					if res := g.Reduce(th, 2, []byte{byte(i * 10)}, func(acc, next []byte) []byte {
						return []byte{acc[0] + next[0]}
					}); i == 2 {
						sum = res
					}
				})
			}
			eng.Run()
			if len(gathered) != n {
				t.Fatalf("gather returned %d slots", len(gathered))
			}
			for i, b := range gathered {
				want := bytes.Repeat([]byte{byte(10 + i)}, i+1)
				if !bytes.Equal(b, want) {
					t.Fatalf("gathered[%d] = %v, want %v", i, b, want)
				}
			}
			if len(sum) != 1 || sum[0] != 0+10+20+30+40 {
				t.Fatalf("reduce = %v, want 100", sum)
			}
		})
	}
}

// TestGroupAllToAll: every member fans its copies out and collects its
// share in arrival order, for N a power of two and not, on a tree group and
// on a Fanout >= N group alike (the two shapes run one body).
func TestGroupAllToAll(t *testing.T) {
	for _, tc := range []struct {
		n, fanout int
	}{{4, 0}, {5, 0}, {4, 64}, {5, 64}} {
		tc := tc
		t.Run(fmt.Sprintf("n=%d/fanout=%d", tc.n, tc.fanout), func(t *testing.T) {
			n := tc.n
			eng, procs := simCluster(t, n, nil)
			members := collGroup(n)
			results := make([][][]byte, n)
			for i := 0; i < n; i++ {
				i := i
				procs[i].TCreate("m", mts.PrioDefault, func(th *Thread) {
					g := procs[i].NewGroup(members, GroupConfig{Fanout: tc.fanout})
					data := make([][]byte, n)
					for j := 0; j < n; j++ {
						data[j] = []byte(fmt.Sprintf("%d->%d", i, j))
					}
					results[i] = g.AllToAll(th, data)
				})
			}
			eng.Run()
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					want := fmt.Sprintf("%d->%d", j, i)
					if i == j {
						want = fmt.Sprintf("%d->%d", i, i)
					}
					if string(results[i][j]) != want {
						t.Fatalf("results[%d][%d] = %q, want %q", i, j, results[i][j], want)
					}
				}
			}
		})
	}
}

// TestGroupBarrierSynchronizes is the dissemination-barrier counterpart of
// TestBarrier: staggered arrivals, repeated phases, no member may pass
// until every member reached the phase.
func TestGroupBarrierSynchronizes(t *testing.T) {
	for _, fanout := range []int{0, 3, 64} {
		fanout := fanout
		t.Run(fmt.Sprintf("fanout=%d", fanout), func(t *testing.T) {
			const n = 5
			eng, procs := simCluster(t, n, nil)
			members := collGroup(n)
			phase := make([]int, n)
			for i := 0; i < n; i++ {
				i := i
				procs[i].TCreate("m", mts.PrioDefault, func(th *Thread) {
					g := procs[i].NewGroup(members, GroupConfig{Fanout: fanout})
					for ph := 0; ph < 3; ph++ {
						th.Compute(time.Duration(i+1)*7*time.Millisecond, nil)
						phase[i] = ph
						g.Barrier(th)
						for j := 0; j < n; j++ {
							if phase[j] != ph {
								t.Errorf("after barrier %d: member %d at phase %d", ph, j, phase[j])
							}
						}
						g.Barrier(th)
					}
				})
			}
			eng.Run()
		})
	}
}

// TestGroupChannelPinning asserts collectives actually ride the configured
// channel: a group pinned to an explicit priority channel leaves its
// traffic in that channel's counters, and the default channels stay idle.
func TestGroupChannelPinning(t *testing.T) {
	const n = 4
	eng, procs := simCluster(t, n, nil)
	members := collGroup(n)
	chans := make([][]*Channel, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				chans[i] = append(chans[i], nil)
				continue
			}
			chans[i] = append(chans[i], procs[i].Open(ProcID(j), ChannelConfig{ID: 7, Priority: 6}))
		}
	}
	for i := 0; i < n; i++ {
		i := i
		procs[i].TCreate("m", mts.PrioDefault, func(th *Thread) {
			g := procs[i].NewGroup(members, GroupConfig{Channel: 7})
			g.Barrier(th)
			var data []byte
			if i == 0 {
				data = []byte("pinned")
			}
			if string(g.Bcast(th, 0, data)) != "pinned" {
				t.Errorf("member %d: wrong broadcast", i)
			}
		})
	}
	eng.Run()
	var pinned, defaulted int64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			pinned += chans[i][j].Stats().Sent
			defaulted += procs[i].DefaultChannel(ProcID(j)).Stats().Sent
		}
	}
	if pinned == 0 {
		t.Fatal("no collective traffic on the pinned channel")
	}
	if defaulted != 0 {
		t.Fatalf("%d collective messages leaked onto default channels", defaulted)
	}
}

// TestSingleMemberGroupDegenerates pins the nprocs=1 degenerate run every
// MPI-style program has: one-member communicators are legal and every
// collective is a local no-op (the old linear Bcast/Barrier accepted
// world size 1 too).
func TestSingleMemberGroupDegenerates(t *testing.T) {
	eng, procs := simCluster(t, 1, nil)
	var bcast []byte
	procs[0].TCreate("solo", mts.PrioDefault, func(th *Thread) {
		f := MPI(th, []ProcID{0})
		f.Barrier()
		bcast = f.Bcast([]byte("solo"), 0)
		g := procs[0].NewGroup([]Addr{{Proc: 0, Thread: 0}}, GroupConfig{})
		g.Barrier(th)
		if res := g.Gather(th, 0, []byte{9}); len(res) != 1 || res[0][0] != 9 {
			t.Errorf("solo gather = %v", res)
		}
		if r := g.Reduce(th, 0, []byte{7}, func(acc, next []byte) []byte { return acc }); r[0] != 7 {
			t.Errorf("solo reduce = %v", r)
		}
		if a2a := g.AllToAll(th, [][]byte{{5}}); len(a2a) != 1 || a2a[0][0] != 5 {
			t.Errorf("solo alltoall = %v", a2a)
		}
	})
	eng.Run()
	if string(bcast) != "solo" {
		t.Fatalf("solo bcast = %q", bcast)
	}
}

// TestConcurrentBarriersSiblingThreads: two threads of one process
// simultaneously in barriers over *different* groups. Group state is the
// Group's own and its tokens are addressed to the member thread, so both
// complete (a proc-global barrier slot once panicked here).
func TestConcurrentBarriersSiblingThreads(t *testing.T) {
	eng, procs := simCluster(t, 3, nil)
	// Star groups rooted at proc 0, whose two member threads are siblings.
	groupA := []Addr{{Proc: 0, Thread: 0}, {Proc: 1}}
	groupB := []Addr{{Proc: 0, Thread: 1}, {Proc: 2}}
	star := GroupConfig{Fanout: 2}
	done := make([]bool, 4)
	// Proc 0 runs both barriers from sibling threads; procs 1 and 2 delay
	// differently so the two barriers are in flight at the same time on
	// proc 0.
	procs[0].TCreate("a", mts.PrioDefault, func(th *Thread) {
		th.Proc().NewGroup(groupA, star).Barrier(th)
		done[0] = true
	})
	procs[0].TCreate("b", mts.PrioDefault, func(th *Thread) {
		th.Proc().NewGroup(groupB, star).Barrier(th)
		done[1] = true
	})
	procs[1].TCreate("a", mts.PrioDefault, func(th *Thread) {
		th.Compute(5*time.Millisecond, nil)
		th.Proc().NewGroup(groupA, star).Barrier(th)
		done[2] = true
	})
	procs[2].TCreate("b", mts.PrioDefault, func(th *Thread) {
		th.Compute(25*time.Millisecond, nil)
		th.Proc().NewGroup(groupB, star).Barrier(th)
		done[3] = true
	})
	eng.Run()
	for i, d := range done {
		if !d {
			t.Fatalf("participant %d never left its barrier", i)
		}
	}
}

// TestReduceFoldsInArrivalOrder is the out-of-order completion satellite:
// the linear Reduce must fold contributions as they arrive, not in list
// order, so a slow head-of-list peer cannot block payloads already
// delivered.
func TestReduceFoldsInArrivalOrder(t *testing.T) {
	eng, procs := simCluster(t, 3, nil)
	var order []byte
	procs[1].TCreate("slow", mts.PrioDefault, func(th *Thread) {
		th.Compute(50*time.Millisecond, nil)
		th.Send(0, 0, []byte{1})
	})
	procs[2].TCreate("fast", mts.PrioDefault, func(th *Thread) {
		th.Send(0, 0, []byte{2})
	})
	procs[0].TCreate("root", mts.PrioDefault, func(th *Thread) {
		// List order names the slow peer first; arrival order is 2 then 1.
		th.Reduce([]Addr{{Proc: 1}, {Proc: 2}}, nil, func(acc, next []byte) []byte {
			order = append(order, next[0])
			return acc
		})
	})
	eng.Run()
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("fold order %v, want [2 1] (arrival order)", order)
	}
}

// TestGatherCompletesOutOfOrder mirrors the same property for Gather: the
// result is slotted by list position while arrivals complete in delivery
// order (the store never accumulates the fast peers behind the slow one).
func TestGatherCompletesOutOfOrder(t *testing.T) {
	eng, procs := simCluster(t, 4, nil)
	var gathered [][]byte
	for i := 1; i < 4; i++ {
		i := i
		procs[i].TCreate("s", mts.PrioDefault, func(th *Thread) {
			// Peer 1 (first in the list) arrives last.
			th.Compute(time.Duration(4-i)*10*time.Millisecond, nil)
			th.Send(0, 0, []byte{byte(i)})
		})
	}
	procs[0].TCreate("root", mts.PrioDefault, func(th *Thread) {
		gathered = th.Gather([]Addr{{Proc: 1}, {Proc: 2}, {Proc: 3}})
	})
	eng.Run()
	for i, b := range gathered {
		if len(b) != 1 || b[0] != byte(i+1) {
			t.Fatalf("gathered[%d] = %v, want [%d]", i, b, i+1)
		}
	}
}

// TestCollectiveChaosOverLossyCarrier drives tree collectives over a
// carrier eating 20% of all frames, with go-back-N restoring the channel:
// every barrier completes and every broadcast delivers exactly once per
// member, in order — no duplicates, no holes — across three seeds. Rides
// the CI chaos job (-race -count=2).
func TestCollectiveChaosOverLossyCarrier(t *testing.T) {
	for _, seed := range []int64{7, 42, 1995} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const n, rounds = 4, 12
			mem := transport.NewMem()
			mem.SetDropRate(0.20, seed)
			procs := realCluster(t, n, mem, nil)
			members := collGroup(n)
			chans := make([]map[int]*Channel, n)
			for i := 0; i < n; i++ {
				chans[i] = make(map[int]*Channel)
				for j := 0; j < n; j++ {
					if i != j {
						chans[i][j] = procs[i].Open(ProcID(j), ChannelConfig{
							ID: 5, Priority: 5, Error: NewGoBackN(8, 10*time.Millisecond),
						})
					}
				}
			}
			got := make([][]int, n)
			for i := 0; i < n; i++ {
				i := i
				procs[i].TCreate("m", mts.PrioDefault, func(th *Thread) {
					g := procs[i].NewGroup(members, GroupConfig{Channel: 5})
					buf := make([]byte, 1)
					for r := 0; r < rounds; r++ {
						g.Barrier(th)
						root := r % n
						if i == root {
							buf[0] = byte(r)
						}
						ln := g.BcastInto(th, root, buf)
						if ln != 1 {
							t.Errorf("member %d round %d: %d-byte broadcast", i, r, ln)
							return
						}
						got[i] = append(got[i], int(buf[0]))
					}
				})
			}
			runReal(procs)
			if mem.Dropped() == 0 {
				t.Fatal("fault injection never dropped anything — test proves nothing")
			}
			retrans := int64(0)
			for i := 0; i < n; i++ {
				if len(got[i]) != rounds {
					t.Fatalf("member %d delivered %d of %d rounds", i, len(got[i]), rounds)
				}
				for r, v := range got[i] {
					if v != r {
						t.Fatalf("member %d: round %d delivered %d (duplicate or reorder): %v", i, r, v, got[i])
					}
				}
				for _, c := range chans[i] {
					retrans += c.Error().(*GoBackN).Retransmissions()
				}
			}
			if retrans == 0 {
				t.Fatal("no retransmissions — loss never exercised recovery")
			}
		})
	}
}

// TestCollectiveTraceLanes asserts the collective layer's trace
// annotation: each group gets its own lane, Comm during each operation
// with per-round marks (round index, fan size), and PhaseSkew over the
// members' lanes yields one barrier-exit skew per phase.
func TestCollectiveTraceLanes(t *testing.T) {
	const n, phases = 2, 3
	clock := vclock.NewRealClock()
	mem := transport.NewMem()
	procs := make([]*Proc, n)
	recorders := make([]*trace.Recorder, n)
	for i := 0; i < n; i++ {
		rt := mts.New(mts.Config{Name: fmt.Sprintf("tr%d", i), IdleTimeout: 10 * time.Second, Clock: clock})
		recorders[i] = trace.NewRecorder(clock)
		procs[i] = New(Config{
			ID: ProcID(i), RT: rt, Endpoint: mem.Attach(ProcID(i), rt),
			Tracer: recorders[i], TraceName: fmt.Sprintf("p%d", i),
		})
	}
	members := collGroup(n)
	for i := 0; i < n; i++ {
		i := i
		procs[i].TCreate("m", mts.PrioDefault, func(th *Thread) {
			g := procs[i].NewGroup(members, GroupConfig{})
			for ph := 0; ph < phases; ph++ {
				time.Sleep(time.Duration(i+1) * time.Millisecond) // phase skew
				g.Barrier(th)
			}
		})
	}
	runReal(procs)
	rows := make([]*trace.Timeline, n)
	for i := 0; i < n; i++ {
		recorders[i].CloseAll()
		name := fmt.Sprintf("p%d/coll g0 ch0", i)
		rows[i] = recorders[i].Timeline(name)
		if rows[i] == nil {
			t.Fatalf("proc %d has no collective lane %q (rows: %v)", i, name, recorders[i].Names())
		}
		if len(rows[i].Marks) == 0 {
			t.Fatalf("proc %d collective lane has no round marks", i)
		}
		if !strings.HasPrefix(rows[i].Marks[0].Label, "bar r0 ") {
			t.Fatalf("proc %d first mark %q, want a bar r0 annotation", i, rows[i].Marks[0].Label)
		}
	}
	skews := trace.PhaseSkew(rows, trace.Comm)
	if len(skews) != phases {
		t.Fatalf("PhaseSkew found %d phases, want %d", len(skews), phases)
	}
	for ph, s := range skews {
		if s < 0 {
			t.Fatalf("phase %d skew negative: %v", ph, s)
		}
	}
}

// TestFanGatedCopyWakesOnce: a fan-out whose copy to one member is held by
// flow control (window 1, already spent) while its copy to the other leaves
// at once. The free copy retires inline; the held one leaves when the
// member's credit reopens the window, and reaches the fanning thread through
// the fans out-queue. The thread parks once, wakes exactly once, and its
// fan count ends at zero — on the virtual driver (two lanes, so the copies
// sit on different lanes) and on the thread driver.
func TestFanGatedCopyWakesOnce(t *testing.T) {
	for _, lanes := range []int{1, 2} {
		lanes := lanes
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			vm := NewVirtualMesh(3, 1, VirtualMeshConfig{Lanes: lanes, Flow: NewWindowFlow(1)})
			members := collGroup(3)
			payload := []byte("fanned")
			var wakes int
			fanLeft := -1
			got := make([]string, 3)
			for i, p := range vm.Procs {
				i, p := i, p
				p.TCreate("m", mts.PrioDefault, func(th *Thread) {
					g := p.NewGroup(members, GroupConfig{})
					if i != 0 {
						if i == 1 {
							th.RecvTagged(5, 0, 0)
						}
						got[i] = string(g.Bcast(th, 0, nil))
						return
					}
					th.SendTagged(5, 0, 1, []byte("spends the window"))
					before := th.mt.Dispatches()
					g.Bcast(th, 0, payload)
					wakes = th.mt.Dispatches() - before
					fanLeft = th.fanLeft
				})
			}
			vm.Run()
			if wakes != 1 || fanLeft != 0 {
				t.Fatalf("fanning thread woke %d times with fanLeft %d, want 1 and 0", wakes, fanLeft)
			}
			if got[1] != string(payload) || got[2] != string(payload) {
				t.Fatalf("members got %q and %q, want %q", got[1], got[2], payload)
			}
		})
	}
}
