package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/mts"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcpip"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/work"
)

// simCluster builds n NCS processes over simulated TCP on a switched ATM
// LAN (fast, so protocol/thread behaviour dominates the tests).
func simCluster(t *testing.T, n int, mk func(i int) (FlowControl, ErrorControl)) (*sim.Engine, []*Proc) {
	t.Helper()
	eng := sim.NewEngine()
	eng.SetMaxTime(time.Hour)
	net := netsim.NewATMLAN(eng, n, netsim.ATMLANConfig{HostLinkBps: 100e6})
	cost := tcpip.CostModel{PerMessage: 100 * time.Microsecond, PerByteSend: 10 * time.Nanosecond, PerByteRecv: 10 * time.Nanosecond, MTU: 8192, FrameOverhead: 58}
	procs := make([]*Proc, n)
	for i := 0; i < n; i++ {
		node := eng.NewNode(fmt.Sprintf("node%d", i))
		ep := tcpip.NewSimTCP(node, net, i, cost)
		var fc FlowControl
		var ec ErrorControl
		if mk != nil {
			fc, ec = mk(i)
		}
		procs[i] = New(Config{
			ID:       ProcID(i),
			RT:       node.RT(),
			Endpoint: ep,
			Compute:  work.Sim(node),
			RecvCharge: func(mt *mts.Thread, sz int) {
				node.Compute(mt, cost.RecvCost(sz))
			},
			Flow:  fc,
			Error: ec,
			After: func(d time.Duration, fn func()) { eng.Schedule(d, fn) },
		})
	}
	return eng, procs
}

// realCluster builds n NCS processes over the Mem transport, each with its
// own real-time runtime.
func realCluster(t *testing.T, n int, net *transport.Mem, mk func(i int) (FlowControl, ErrorControl)) []*Proc {
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
		procs[i] = New(Config{ID: ProcID(i), RT: rt, Endpoint: ep, Flow: fc, Error: ec})
	}
	return procs
}

func runReal(procs []*Proc) {
	done := make(chan struct{}, len(procs))
	for _, p := range procs {
		p := p
		go func() {
			p.Start()
			done <- struct{}{}
		}()
	}
	for range procs {
		<-done
	}
}

// recvMsg blocks th until a message on channel ch matching (tag,
// fromThread, fromProc) is consumed, and returns it whole.
func recvMsg(th *Thread, ch ChannelID, tag, fromThread int, fromProc ProcID) *transport.Message {
	m, _ := th.recvAnyOf(recvPattern{ch: ch, tag: tag, from: []Addr{{Proc: fromProc, Thread: fromThread}}})
	return m
}

func TestSimSendRecvBasic(t *testing.T) {
	eng, procs := simCluster(t, 2, nil)
	var got []byte
	var from Addr
	procs[0].TCreate("sender", mts.PrioDefault, func(th *Thread) {
		th.Send(0, 1, []byte("hello ncs"))
	})
	procs[1].TCreate("receiver", mts.PrioDefault, func(th *Thread) {
		got, from = th.Recv(Any, Any)
	})
	eng.Run()
	if string(got) != "hello ncs" {
		t.Fatalf("got %q", got)
	}
	if from.Proc != 0 || from.Thread != 0 {
		t.Fatalf("from = %+v", from)
	}
	if procs[0].Sent() != 1 || procs[1].Received() != 1 {
		t.Fatalf("counters: sent=%d recv=%d", procs[0].Sent(), procs[1].Received())
	}
}

func TestThreadAddressing(t *testing.T) {
	// Two threads per process; messages must route to the addressed
	// thread even when both are waiting (the paper's THREAD1/THREAD2
	// pattern from the matmul pseudo-code, Figure 14).
	eng, procs := simCluster(t, 2, nil)
	results := make([]string, 2)
	for i := 0; i < 2; i++ {
		i := i
		procs[1].TCreate(fmt.Sprintf("recv%d", i), mts.PrioDefault, func(th *Thread) {
			data, _ := th.Recv(Any, Any)
			results[th.Idx()] = string(data)
		})
	}
	procs[0].TCreate("send", mts.PrioDefault, func(th *Thread) {
		// Deliberately send to thread 1 first.
		th.Send(1, 1, []byte("for-thread-1"))
		th.Send(0, 1, []byte("for-thread-0"))
	})
	eng.Run()
	if results[0] != "for-thread-0" || results[1] != "for-thread-1" {
		t.Fatalf("results = %v", results)
	}
}

func TestRecvSourceMatching(t *testing.T) {
	eng, procs := simCluster(t, 3, nil)
	var first, second Addr
	procs[2].TCreate("recv", mts.PrioDefault, func(th *Thread) {
		// Insist on proc 1 first even though proc 0's message arrives
		// earlier (proc 0 sends immediately; proc 1 after compute).
		_, first = th.Recv(Any, 1)
		_, second = th.Recv(Any, 0)
	})
	procs[0].TCreate("s0", mts.PrioDefault, func(th *Thread) {
		th.Send(0, 2, []byte("from0"))
	})
	procs[1].TCreate("s1", mts.PrioDefault, func(th *Thread) {
		th.Compute(10*time.Millisecond, nil)
		th.Send(0, 2, []byte("from1"))
	})
	eng.Run()
	if first.Proc != 1 || second.Proc != 0 {
		t.Fatalf("order: first=%+v second=%+v", first, second)
	}
}

func TestOverlapComputationCommunication(t *testing.T) {
	// The paper's central claim (Figure 4): with two threads per process,
	// computation on already-arrived data hides the transfer of the rest.
	// Proc 0 sends two 1 MB blocks to proc 1; each block needs 100 ms of
	// computation.
	//
	// The single-threaded baseline follows the paper's p4 coding style
	// (Figure 13): receive *all* the data, then compute — so the second
	// transfer sits on the critical path. With two threads (Figure 14),
	// thread 0 computes on block 0 while block 1 is still on the wire.
	run := func(threads int) time.Duration {
		eng, procs := simCluster(t, 2, nil)
		const blocks = 2
		comp := 100 * time.Millisecond
		payload := make([]byte, 1<<20)
		procs[0].TCreate("host", mts.PrioDefault, func(th *Thread) {
			for b := 0; b < blocks; b++ {
				th.Send(b%threads, 1, payload)
			}
		})
		var finished vclock.Time
		if threads == 1 {
			procs[1].TCreate("worker", mts.PrioDefault, func(th *Thread) {
				for b := 0; b < blocks; b++ {
					th.Recv(Any, 0)
				}
				for b := 0; b < blocks; b++ {
					th.Compute(comp, nil)
				}
				finished = eng.Now()
			})
		} else {
			done := 0
			for i := 0; i < threads; i++ {
				procs[1].TCreate(fmt.Sprintf("worker%d", i), mts.PrioDefault, func(th *Thread) {
					th.Recv(Any, 0)
					th.Compute(comp, nil)
					done++
					if done == threads {
						finished = eng.Now()
					}
				})
			}
		}
		eng.Run()
		return time.Duration(finished)
	}
	serial := run(1)
	overlapped := run(2)
	if overlapped >= serial {
		t.Fatalf("multithreaded (%v) not faster than single-threaded (%v)", overlapped, serial)
	}
	// The second transfer (~90ms at 100Mbps+costs) should hide almost
	// entirely behind the first 100ms compute.
	gain := serial - overlapped
	if gain < 50*time.Millisecond {
		t.Fatalf("overlap gain only %v (serial %v, overlapped %v)", gain, serial, overlapped)
	}
}

func TestSendBlocksOnlyCallingThread(t *testing.T) {
	// While thread 0 is parked in Send (wire drain), thread 1 must run.
	eng, procs := simCluster(t, 2, nil)
	var computedDuringSend bool
	var sendDone bool
	procs[1].TCreate("sink", mts.PrioDefault, func(th *Thread) {
		th.Recv(Any, Any)
	})
	procs[0].TCreate("sender", mts.PrioDefault, func(th *Thread) {
		th.Send(0, 1, make([]byte, 4<<20)) // long transfer
		sendDone = true
	})
	procs[0].TCreate("worker", mts.PrioDefault, func(th *Thread) {
		th.Compute(time.Millisecond, nil)
		if !sendDone {
			computedDuringSend = true
		}
	})
	eng.Run()
	if !computedDuringSend {
		t.Fatal("sibling thread did not run during Send: process blocked")
	}
}

func TestBcastGather(t *testing.T) {
	eng, procs := simCluster(t, 4, nil)
	var gathered [][]byte
	procs[0].TCreate("host", mts.PrioDefault, func(th *Thread) {
		list := []Addr{{Proc: 1, Thread: 0}, {Proc: 2, Thread: 0}, {Proc: 3, Thread: 0}}
		th.Bcast(list, []byte("work"))
		gathered = th.Gather(list)
	})
	for i := 1; i < 4; i++ {
		i := i
		procs[i].TCreate("node", mts.PrioDefault, func(th *Thread) {
			data, from := th.Recv(Any, 0)
			th.Send(from.Thread, from.Proc, append(data, byte('0'+i)))
		})
	}
	eng.Run()
	if len(gathered) != 3 {
		t.Fatalf("gathered %d", len(gathered))
	}
	for i, g := range gathered {
		want := fmt.Sprintf("work%d", i+1)
		if string(g) != want {
			t.Fatalf("gathered[%d] = %q, want %q", i, g, want)
		}
	}
}

func TestReduce(t *testing.T) {
	const n = 4
	eng, procs := simCluster(t, n, nil)
	var sum []byte
	for i := 1; i < n; i++ {
		i := i
		procs[i].TCreate("leaf", mts.PrioDefault, func(th *Thread) {
			th.Send(0, 0, []byte{byte(i * 10)})
		})
	}
	procs[0].TCreate("root", mts.PrioDefault, func(th *Thread) {
		list := []Addr{{Proc: 1}, {Proc: 2}, {Proc: 3}}
		sum = th.Reduce(list, []byte{5}, func(acc, next []byte) []byte {
			return []byte{acc[0] + next[0]}
		})
	})
	eng.Run()
	if len(sum) != 1 || sum[0] != 5+10+20+30 {
		t.Fatalf("reduce = %v, want 65", sum)
	}
}

// TestBarrier runs the same group through six barriers: every generation
// reuses the group's state, and the stagger rotates so the star's root
// (member 0) is entered both before the others' arrivals and after them.
func TestBarrier(t *testing.T) {
	for _, fanout := range []int{0, 3} { // dissemination; root-collected star
		eng, procs := simCluster(t, 3, nil)
		members := []Addr{{Proc: 0}, {Proc: 1}, {Proc: 2}}
		phase := make([]int, 3)
		for i := 0; i < 3; i++ {
			i := i
			procs[i].TCreate("w", mts.PrioDefault, func(th *Thread) {
				g := th.Proc().NewGroup(members, GroupConfig{Fanout: fanout})
				for ph := 0; ph < 3; ph++ {
					th.Compute(time.Duration((i+ph)%3+1)*10*time.Millisecond, nil)
					phase[i] = ph
					g.Barrier(th)
					for j := 0; j < 3; j++ {
						if phase[j] != ph {
							t.Errorf("fanout %d, after barrier %d: proc %d at phase %d", fanout, ph, j, phase[j])
						}
					}
					g.Barrier(th)
				}
			})
		}
		eng.Run()
	}
}

func TestWindowFlowInvariant(t *testing.T) {
	eng, procs := simCluster(t, 2, func(i int) (FlowControl, ErrorControl) {
		return NewWindowFlow(2), nil
	})
	// The Config instance is a template; the live per-channel state machine
	// hangs off the default channel toward proc 1.
	senderFlow := procs[0].DefaultChannel(1).Flow().(*WindowFlow)
	const n = 12
	var received int
	procs[0].TCreate("sender", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < n; k++ {
			th.Send(0, 1, make([]byte, 10000))
			if out := senderFlow.Outstanding(); out > 2 {
				t.Errorf("window violated: %d outstanding", out)
			}
		}
	})
	procs[1].TCreate("recv", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < n; k++ {
			th.Recv(Any, Any)
			received++
		}
	})
	eng.Run()
	if received != n {
		t.Fatalf("received %d of %d", received, n)
	}
}

func TestRateFlowPaces(t *testing.T) {
	eng, procs := simCluster(t, 2, func(i int) (FlowControl, ErrorControl) {
		return NewRateFlow(1e6, 10e3), nil // 1 MB/s, 10 KB bucket
	})
	const msgs = 10
	const size = 10000
	var lastArrival vclock.Time
	procs[0].TCreate("vod", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < msgs; k++ {
			th.Send(0, 1, make([]byte, size))
		}
	})
	procs[1].TCreate("viewer", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < msgs; k++ {
			th.Recv(Any, Any)
		}
		lastArrival = eng.Now()
	})
	eng.Run()
	// 100 KB at 1 MB/s with a 10 KB head-start bucket: >= ~90 ms.
	if lastArrival < vclock.Time(85*time.Millisecond) {
		t.Fatalf("stream finished in %v: not paced", time.Duration(lastArrival))
	}
}

func TestGoBackNOverLossyTransport(t *testing.T) {
	mem := transport.NewMem()
	mem.SetDropRate(0.3, 42) // drop ~30% of messages, data and acks alike
	procs := realCluster(t, 2, mem, func(i int) (FlowControl, ErrorControl) {
		return nil, NewGoBackN(4, 20*time.Millisecond)
	})
	const n = 10
	var got []int
	procs[0].TCreate("sender", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < n; k++ {
			th.Send(0, 1, []byte{byte(k)})
		}
	})
	procs[1].TCreate("recv", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < n; k++ {
			data, _ := th.Recv(Any, Any)
			got = append(got, int(data[0]))
		}
	})
	runReal(procs)
	if len(got) != n {
		t.Fatalf("received %d of %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
	if mem.Dropped() == 0 {
		t.Fatal("fault injection never dropped anything — test proves nothing")
	}
}

func TestRealModeMemBasic(t *testing.T) {
	mem := transport.NewMem()
	procs := realCluster(t, 2, mem, nil)
	var got string
	procs[0].TCreate("s", mts.PrioDefault, func(th *Thread) {
		th.Send(0, 1, []byte("real mode"))
	})
	procs[1].TCreate("r", mts.PrioDefault, func(th *Thread) {
		data, _ := th.Recv(Any, Any)
		got = string(data)
	})
	runReal(procs)
	if got != "real mode" {
		t.Fatalf("got %q", got)
	}
}

func TestP4FilterPingPong(t *testing.T) {
	eng, procs := simCluster(t, 2, nil)
	var reply []byte
	procs[0].TCreate("a", mts.PrioDefault, func(th *Thread) {
		f := P4(th)
		f.Send(7, 1, []byte("ping"))
		typ, from := Any, ProcID(Any)
		for !f.MessagesAvailable() {
			th.Compute(time.Millisecond, nil)
		}
		reply = f.Recv(&typ, &from)
		if typ != 8 || from != 1 {
			t.Errorf("typ=%d from=%d", typ, from)
		}
		if f.MessagesAvailable() {
			t.Error("MessagesAvailable after the reply was received")
		}
	})
	procs[1].TCreate("b", mts.PrioDefault, func(th *Thread) {
		f := P4(th)
		if f.MessagesAvailable() {
			t.Error("MessagesAvailable before any send")
		}
		typ, from := 7, ProcID(0)
		data := f.Recv(&typ, &from)
		if f.MessagesAvailable() {
			t.Error("MessagesAvailable after the only message was received")
		}
		f.Send(8, 0, append(data, []byte("-pong")...))
	})
	eng.Run()
	if string(reply) != "ping-pong" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestTryRecvAndMessagesAvailable(t *testing.T) {
	eng, procs := simCluster(t, 2, nil)
	var beforeAvail, afterAvail, tryOK bool
	var polled []byte
	procs[1].TCreate("poller", mts.PrioDefault, func(th *Thread) {
		beforeAvail = th.MessagesAvailable(Any, Any)
		if _, _, ok := th.TryRecv(Any, Any); ok {
			t.Error("TryRecv succeeded before any send")
		}
		// Wait for the message the slow way, then re-probe.
		data, _ := th.Recv(Any, Any)
		_ = data
		// Second message should be queued by now or soon; spin on
		// compute+probe.
		for !th.MessagesAvailable(Any, Any) {
			th.Compute(time.Millisecond, nil)
		}
		afterAvail = true
		polled, _, tryOK = th.TryRecv(Any, Any)
	})
	procs[0].TCreate("sender", mts.PrioDefault, func(th *Thread) {
		th.Send(0, 1, []byte("one"))
		th.Send(0, 1, []byte("two"))
	})
	eng.Run()
	if beforeAvail {
		t.Fatal("MessagesAvailable true before send")
	}
	if !afterAvail || !tryOK || string(polled) != "two" {
		t.Fatalf("poll path failed: avail=%v ok=%v data=%q", afterAvail, tryOK, polled)
	}
}

// A consumed message must not stay reachable from the store's backing array,
// nor a recycled waiter from the waiter list's: every removal path nils the
// slot it vacates.
func TestStoreAndWaitersDoNotPinRemovedEntries(t *testing.T) {
	const n = 64
	eng, procs := simCluster(t, 2, nil)
	p := procs[1]
	p.TCreate("drainer", mts.PrioDefault, func(th *Thread) {
		th.RecvTagged(n+1, Any, Any) // sent last: the store is full behind it
		if len(p.store) != n {
			t.Errorf("store holds %d messages, want %d", len(p.store), n)
		}
		// One quarter through each removal site, the tagged ones picking
		// from the far end so that entries leave the middle of the store.
		pvm := PVM(th)
		for i := 0; i < n/4; i++ {
			if _, _, ok := th.TryRecv(Any, Any); !ok {
				t.Error("TryRecv found nothing in a full store")
			}
			th.RecvTagged(n-1-i, Any, Any)
			th.recvAnyOf(recvPattern{tag: n - 1 - n/4 - i, from: []Addr{{Proc: 0, Thread: Any}}})
			if _, ok := pvm.NRecv(0, n-1-n/2-i); !ok {
				t.Error("NRecv found nothing in a full store")
			}
		}
	})
	// Parked receivers, woken out of order: waiters leave the middle too.
	for k := 1; k <= 4; k++ {
		p.TCreate(fmt.Sprintf("waiter%d", k), mts.PrioDefault, func(th *Thread) { th.RecvTagged(n, Any, Any) })
	}
	procs[0].TCreate("sender", mts.PrioDefault, func(th *Thread) {
		for _, k := range []int{3, 1, 4, 2} {
			th.SendTagged(n, k, 1, []byte("w"))
		}
		for tag := 0; tag <= n+1; tag++ {
			if tag != n {
				th.SendTagged(tag, 0, 1, []byte("m"))
			}
		}
	})
	eng.Run()
	if len(p.store) != 0 || cap(p.store) < n || len(p.waiters) != 0 || cap(p.waiters) < 4 {
		t.Fatalf("store len %d cap %d, waiters len %d cap %d", len(p.store), cap(p.store), len(p.waiters), cap(p.waiters))
	}
	for i, m := range p.store[:cap(p.store)] {
		if m != nil {
			t.Fatalf("store slot %d of %d still points at a consumed message", i, cap(p.store))
		}
	}
	for i, w := range p.waiters[:cap(p.waiters)] {
		if w != nil {
			t.Fatalf("waiter slot %d of %d still points at a recycled waiter", i, cap(p.waiters))
		}
	}
}

func TestBlockUnblock(t *testing.T) {
	// The paper's JPEG host (Figure 17): thread 2 blocks until thread 1
	// finishes reading the image, then both distribute halves.
	eng, procs := simCluster(t, 1, nil)
	var order []string
	var t2 *Thread
	procs[0].TCreate("t1", mts.PrioDefault, func(th *Thread) {
		th.Compute(time.Millisecond, nil) // "read the image file"
		order = append(order, "t1 read")
		th.Unblock(t2)
		th.Compute(time.Millisecond, nil)
		order = append(order, "t1 done")
	})
	t2 = procs[0].TCreate("t2", mts.PrioDefault, func(th *Thread) {
		th.Block()
		order = append(order, "t2 resumed")
	})
	eng.Run()
	if len(order) != 3 || order[0] != "t1 read" {
		t.Fatalf("order = %v", order)
	}
}

func TestManyToOneInterleaving(t *testing.T) {
	const senders = 4
	const per = 5
	eng, procs := simCluster(t, senders+1, nil)
	counts := map[int]int{}
	procs[senders].TCreate("sink", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < senders*per; k++ {
			data, from := th.Recv(Any, Any)
			if int(data[0]) != counts[int(from.Proc)] {
				t.Errorf("per-source order broken: proc %d sent %d, want %d",
					from.Proc, data[0], counts[int(from.Proc)])
			}
			counts[int(from.Proc)]++
		}
	})
	for s := 0; s < senders; s++ {
		s := s
		procs[s].TCreate("src", mts.PrioDefault, func(th *Thread) {
			for k := 0; k < per; k++ {
				th.Send(0, ProcID(senders), []byte{byte(k)})
				th.Compute(time.Duration(s+1)*time.Millisecond, nil)
			}
		})
	}
	eng.Run()
	for s := 0; s < senders; s++ {
		if counts[s] != per {
			t.Fatalf("source %d delivered %d of %d", s, counts[s], per)
		}
	}
}

func TestSystemThreadsShutDownCleanly(t *testing.T) {
	eng, procs := simCluster(t, 2, nil)
	procs[0].TCreate("s", mts.PrioDefault, func(th *Thread) {
		th.Send(0, 1, []byte("x"))
	})
	procs[1].TCreate("r", mts.PrioDefault, func(th *Thread) {
		th.Recv(Any, Any)
	})
	eng.Run() // would panic on deadlock if system threads lingered
	for _, p := range procs {
		if p.RT().Live() != 0 {
			t.Fatalf("proc %d has %d live threads after run", p.ID(), p.RT().Live())
		}
	}
}
