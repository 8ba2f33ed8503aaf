package p4

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/mts"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcpip"
	"repro/internal/transport"
)

// memGroup builds n real-mode p4 processes over a Mem transport.
func memGroup(t *testing.T, n int) (*transport.Mem, []*Process) {
	t.Helper()
	mem := transport.NewMem()
	procs := make([]*Process, n)
	for i := 0; i < n; i++ {
		rt := mts.New(mts.Config{Name: fmt.Sprintf("p%d", i), IdleTimeout: 10 * time.Second})
		procs[i] = New(Config{ID: ProcID(i), RT: rt, Endpoint: mem.Attach(ProcID(i), rt)})
	}
	return mem, procs
}

func TestSendRecvTyped(t *testing.T) {
	_, procs := memGroup(t, 2)
	var got []byte
	var gotType int
	var gotFrom ProcID
	procs[0].Go(func(th *mts.Thread) {
		procs[0].Send(th, 42, 1, []byte("typed"))
	})
	procs[1].Go(func(th *mts.Thread) {
		typ, from := 42, ProcID(0)
		got = procs[1].Recv(th, &typ, &from)
		gotType, gotFrom = typ, from
	})
	(&Procgroup{Procs: procs}).RunReal()
	if string(got) != "typed" || gotType != 42 || gotFrom != 0 {
		t.Fatalf("got %q type %d from %d", got, gotType, gotFrom)
	}
}

func TestWildcardRecv(t *testing.T) {
	_, procs := memGroup(t, 3)
	received := map[ProcID]string{}
	for i := 1; i <= 2; i++ {
		i := i
		procs[i].Go(func(th *mts.Thread) {
			procs[i].Send(th, i*10, 0, []byte(fmt.Sprintf("from%d", i)))
		})
	}
	procs[0].Go(func(th *mts.Thread) {
		for k := 0; k < 2; k++ {
			typ, from := Any, ProcID(Any)
			data := procs[0].Recv(th, &typ, &from)
			received[from] = string(data)
			if typ != int(from)*10 {
				t.Errorf("type %d from %d", typ, from)
			}
		}
	})
	(&Procgroup{Procs: procs}).RunReal()
	if received[1] != "from1" || received[2] != "from2" {
		t.Fatalf("received %v", received)
	}
}

func TestTypeSelectiveRecv(t *testing.T) {
	// A typed recv must skip queued messages of other types.
	_, procs := memGroup(t, 2)
	var order []int
	procs[0].Go(func(th *mts.Thread) {
		procs[0].Send(th, 1, 1, []byte("low"))
		procs[0].Send(th, 2, 1, []byte("high"))
	})
	procs[1].Go(func(th *mts.Thread) {
		// Wait for both to be queued, then take type 2 first.
		for !procs[1].MessagesAvailable() {
			th.Yield()
		}
		typ := 2
		procs[1].Recv(th, &typ, nil)
		order = append(order, 2)
		typ = 1
		procs[1].Recv(th, &typ, nil)
		order = append(order, 1)
	})
	(&Procgroup{Procs: procs}).RunReal()
	if len(order) != 2 || order[0] != 2 {
		t.Fatalf("order %v", order)
	}
}

func TestMessagesAvailable(t *testing.T) {
	_, procs := memGroup(t, 2)
	var before, after bool
	procs[1].Go(func(th *mts.Thread) {
		// Sample the empty state before green-lighting the sender: the
		// two runtimes run concurrently in real time, so without the
		// handshake the sends could land first.
		before = procs[1].MessagesAvailable()
		procs[1].Send(th, 2, 0, nil)
		procs[1].Recv(th, nil, nil)
		// Wait for the second message to be queued (delivery is
		// asynchronous), then probe it.
		for !procs[1].MessagesAvailable() {
			th.Yield()
		}
		after = procs[1].MessagesAvailable()
		procs[1].Recv(th, nil, nil)
	})
	procs[0].Go(func(th *mts.Thread) {
		procs[0].Recv(th, nil, nil) // green light
		procs[0].Send(th, 1, 1, []byte("a"))
		procs[0].Send(th, 1, 1, []byte("b"))
	})
	(&Procgroup{Procs: procs}).RunReal()
	if before {
		t.Fatal("MessagesAvailable true before any send")
	}
	if !after {
		t.Fatal("MessagesAvailable false with queued message")
	}
}

func TestNegativeTypePanics(t *testing.T) {
	_, procs := memGroup(t, 2)
	procs[1].Go(func(th *mts.Thread) {})
	procs[0].Go(func(th *mts.Thread) {
		defer func() {
			if recover() == nil {
				t.Error("negative type accepted")
			}
		}()
		procs[0].Send(th, -5, 1, nil)
	})
	(&Procgroup{Procs: procs}).RunReal()
}

func TestRecvBlocksWholeProcess(t *testing.T) {
	// The defining baseline behaviour: while the single process thread is
	// in Recv, nothing else in that process runs (there is nothing else),
	// and in sim mode the node's CPU is idle.
	eng := sim.NewEngine()
	net := netsim.NewEthernetLAN(eng, 2, netsim.EthernetConfig{BitsPerSecond: 8e6})
	cost := tcpip.CostModel{MTU: 1460, PerMessage: time.Millisecond}
	var nodes [2]*sim.Node
	var procs [2]*Process
	for i := 0; i < 2; i++ {
		nodes[i] = eng.NewNode(fmt.Sprintf("n%d", i))
		ep := tcpip.NewSimTCP(nodes[i], net, i, cost)
		procs[i] = New(Config{ID: ProcID(i), RT: nodes[i].RT(), Endpoint: ep})
	}
	procs[0].Go(func(th *mts.Thread) {
		// Delay, then send: the receiver's CPU must be idle meanwhile.
		procs[0].Compute(th, 100*time.Millisecond, nil)
		procs[0].Send(th, 1, 1, []byte("late"))
	})
	procs[1].Go(func(th *mts.Thread) {
		procs[1].Recv(th, nil, nil)
	})
	eng.Run()
	if nodes[1].BusyTime() != 0 {
		t.Fatalf("receiver burned %v CPU while blocked in recv", nodes[1].BusyTime())
	}
}

func TestBlockedRecvPenaltyCharged(t *testing.T) {
	eng := sim.NewEngine()
	net := netsim.NewEthernetLAN(eng, 2, netsim.EthernetConfig{BitsPerSecond: 8e6})
	cost := tcpip.CostModel{MTU: 1460}
	penalty := 30 * time.Millisecond
	var nodes [2]*sim.Node
	var procs [2]*Process
	for i := 0; i < 2; i++ {
		i := i
		nodes[i] = eng.NewNode(fmt.Sprintf("n%d", i))
		ep := tcpip.NewSimTCP(nodes[i], net, i, cost)
		procs[i] = New(Config{
			ID: ProcID(i), RT: nodes[i].RT(), Endpoint: ep,
			BlockedRecvPenalty: func(t *mts.Thread) { nodes[i].Compute(t, penalty) },
		})
	}
	procs[0].Go(func(th *mts.Thread) {
		procs[0].Send(th, 1, 1, []byte("x"))
	})
	var recvDone time.Duration
	procs[1].Go(func(th *mts.Thread) {
		procs[1].Recv(th, nil, nil) // blocks -> penalty applies
		recvDone = time.Duration(eng.Now())
	})
	eng.Run()
	if recvDone < penalty {
		t.Fatalf("recv returned at %v, before the %v poll penalty", recvDone, penalty)
	}
}

func TestStats(t *testing.T) {
	_, procs := memGroup(t, 2)
	procs[0].Go(func(th *mts.Thread) {
		for i := 0; i < 3; i++ {
			procs[0].Send(th, 1, 1, nil)
		}
	})
	procs[1].Go(func(th *mts.Thread) {
		for i := 0; i < 3; i++ {
			procs[1].Recv(th, nil, nil)
		}
	})
	(&Procgroup{Procs: procs}).RunReal()
	if procs[0].Sends() != 3 || procs[1].Recvs() != 3 {
		t.Fatalf("sends=%d recvs=%d", procs[0].Sends(), procs[1].Recvs())
	}
}

func TestDoubleGoPanics(t *testing.T) {
	_, procs := memGroup(t, 1)
	procs[0].Go(func(th *mts.Thread) {})
	defer func() {
		if recover() == nil {
			t.Fatal("second Go accepted")
		}
	}()
	procs[0].Go(func(th *mts.Thread) {})
}
