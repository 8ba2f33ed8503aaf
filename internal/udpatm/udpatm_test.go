package udpatm

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/mts"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

func newRT(name string) *mts.Runtime {
	return mts.New(mts.Config{Name: name, IdleTimeout: 10 * time.Second})
}

func TestPingPongOverUDP(t *testing.T) {
	net := NewNetwork()
	rtA, rtB := newRT("a"), newRT("b")
	epA, err := net.Attach(0, rtA)
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	epB, err := net.Attach(1, rtB)
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()

	var reply []byte
	var waiterA, serverB *mts.Thread
	var inbound *transport.Message
	epA.SetHandler(func(m *transport.Message) {
		reply = m.Data
		rtA.Unblock(waiterA, false)
	})
	epB.SetHandler(func(m *transport.Message) {
		inbound = m
		rtB.Unblock(serverB, false)
	})

	serverB = rtB.Create("server", mts.PrioDefault, func(th *mts.Thread) {
		if inbound == nil {
			th.Park("request")
		}
		data := append(append([]byte{}, inbound.Data...), []byte("-pong")...)
		epB.Send(th, &transport.Message{From: 1, To: 0, Data: data})
	})
	waiterA = rtA.Create("waiter", mts.PrioDefault, func(th *mts.Thread) {
		epA.Send(th, &transport.Message{From: 0, To: 1, Data: []byte("ping")})
		if reply == nil {
			th.Park("reply")
		}
	})

	done := make(chan struct{}, 2)
	go func() { rtA.Run(); done <- struct{}{} }()
	go func() { rtB.Run(); done <- struct{}{} }()
	<-done
	<-done
	if string(reply) != "ping-pong" {
		t.Fatalf("reply = %q", reply)
	}
}

// TestFramePayloadAligned: a message reassembled from cells is staged so its
// payload starts 64-byte aligned, for each header length (no control word, a
// credit, a credit and an ack). An empty payload decodes to no Data, so it
// has no address to check; it is sent to check it still arrives.
func TestFramePayloadAligned(t *testing.T) {
	net := NewNetwork()
	rtA, rtB := newRT("a"), newRT("b")
	epA, _ := net.Attach(0, rtA)
	defer epA.Close()
	epB, _ := net.Attach(1, rtB)
	defer epB.Close()
	epA.SetHandler(func(m *transport.Message) {})

	var sent []*transport.Message
	for _, words := range []int{0, 1, 2} {
		for _, n := range []int{0, 64, 4 << 10, 32 << 10} {
			sent = append(sent, &transport.Message{From: 0, To: 1, HasCredit: words >= 1, HasAck: words == 2,
				Credit: 7, Ack: 9, Data: bytes.Repeat([]byte{byte(n + words)}, n)})
		}
	}
	got := 0
	var waiter *mts.Thread
	epB.SetHandler(func(m *transport.Message) {
		want := sent[got]
		if len(m.Data) > 0 && reflect.ValueOf(m.Data).Pointer()%wire.PayloadAlign != 0 {
			t.Errorf("%d-octet header, %d B: payload at %#x, not %d-byte aligned",
				m.WireSize()-len(m.Data), len(m.Data), reflect.ValueOf(m.Data).Pointer(), wire.PayloadAlign)
		}
		if !bytes.Equal(m.Data, want.Data) || m.HasCredit != want.HasCredit || m.HasAck != want.HasAck {
			t.Errorf("message %d: delivered a different message", got)
		}
		m.Release()
		if got++; got == len(sent) {
			rtB.Unblock(waiter, false)
		}
	})
	waiter = rtB.Create("waiter", mts.PrioDefault, func(th *mts.Thread) {
		if got < len(sent) {
			th.Park("msgs")
		}
	})
	rtA.Create("sender", mts.PrioDefault, func(th *mts.Thread) {
		for _, m := range sent {
			epA.Send(th, m)
		}
	})
	done := make(chan struct{}, 2)
	go func() { rtA.Run(); done <- struct{}{} }()
	go func() { rtB.Run(); done <- struct{}{} }()
	<-done
	<-done
	if got != len(sent) {
		t.Fatalf("delivered %d of %d messages", got, len(sent))
	}
}

func TestLargeMessageManyCells(t *testing.T) {
	net := NewNetwork()
	rtA, rtB := newRT("a"), newRT("b")
	epA, _ := net.Attach(0, rtA)
	defer epA.Close()
	epB, _ := net.Attach(1, rtB)
	defer epB.Close()
	epA.SetHandler(func(m *transport.Message) {})

	payload := make([]byte, 100*1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var got []byte
	var waiter *mts.Thread
	epB.SetHandler(func(m *transport.Message) {
		got = m.Data
		rtB.Unblock(waiter, false)
	})
	waiter = rtB.Create("waiter", mts.PrioDefault, func(th *mts.Thread) {
		if got == nil { // guard: delivery may beat the park
			th.Park("msg")
		}
	})
	rtA.Create("sender", mts.PrioDefault, func(th *mts.Thread) {
		epA.Send(th, &transport.Message{From: 0, To: 1, Data: payload})
	})
	done := make(chan struct{}, 2)
	go func() { rtA.Run(); done <- struct{}{} }()
	go func() { rtB.Run(); done <- struct{}{} }()
	<-done
	<-done
	if !bytes.Equal(got, payload) {
		t.Fatal("large payload corrupted over UDP/ATM")
	}
	// 100 KB through 48-byte cell payloads: expect > 2000 cells.
	if epA.CellsSent() < int64(len(payload)/atm.PayloadSize) {
		t.Fatalf("cells sent = %d, implausibly few", epA.CellsSent())
	}
	if epB.CellsReceived() != epA.CellsSent() {
		t.Fatalf("cells recv %d != sent %d", epB.CellsReceived(), epA.CellsSent())
	}
	if epB.BadCells() != 0 {
		t.Fatalf("%d bad cells on loopback", epB.BadCells())
	}
}

func TestNCSOverUDPATM(t *testing.T) {
	// Full stack: NCS procs exchanging over real AAL5 cells on loopback.
	net := NewNetwork()
	var procs [2]*core.Proc
	var eps [2]*Endpoint
	for i := 0; i < 2; i++ {
		rt := newRT("n")
		ep, err := net.Attach(transport.ProcID(i), rt)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps[i] = ep
		procs[i] = core.New(core.Config{ID: core.ProcID(i), RT: rt, Endpoint: ep})
	}
	var sum int
	procs[0].TCreate("send", mts.PrioDefault, func(th *core.Thread) {
		for k := 1; k <= 5; k++ {
			th.Send(0, 1, []byte{byte(k)})
		}
	})
	procs[1].TCreate("recv", mts.PrioDefault, func(th *core.Thread) {
		for k := 0; k < 5; k++ {
			data, _ := th.Recv(core.Any, core.Any)
			sum += int(data[0])
		}
	})
	done := make(chan struct{}, 2)
	for _, p := range procs {
		p := p
		go func() { p.Start(); done <- struct{}{} }()
	}
	<-done
	<-done
	if sum != 15 {
		t.Fatalf("sum = %d, want 15", sum)
	}
}

func TestDuplicateProcRejected(t *testing.T) {
	net := NewNetwork()
	rt := newRT("x")
	ep, err := net.Attach(7, rt)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if _, err := net.Attach(7, rt); err == nil {
		t.Fatal("duplicate attach accepted")
	}
}

// TestVCForMatchesNetsimConvention: the cells udpatm writes carry the VC
// the simulated ATM fabric routes for the same host pair and channel —
// VPI = channel, VCI = 64 + src*256 + dst — so a cell off the UDP wire,
// handed to netsim's switch, reaches its destination host.
func TestVCForMatchesNetsimConvention(t *testing.T) {
	h := newTxHarness(t)
	go h.ep.writeLoop()
	h.send(0, body('d', 100))
	h.send(9, body('c', 100))
	dgrams := h.datagrams(2)
	if err := h.ep.Close(); err != nil {
		t.Fatal(err)
	}
	want := map[atm.VC]bool{{VPI: 0, VCI: 64 + 0*256 + 1}: true, {VPI: 9, VCI: 64 + 0*256 + 1}: true}
	eng := sim.NewEngine()
	lan := netsim.NewATMLAN(eng, 2, netsim.ATMLANConfig{HostLinkBps: 100e6})
	lan.InstallChannelRoute(0, 1, 9)
	arrived := 0
	lan.AttachHost(1, netsim.PortFunc(func(netsim.Unit) { arrived++ }))
	for _, d := range dgrams {
		vc := vcOf(d)
		if !want[vc] {
			t.Fatalf("datagram on VC %+v, want one of %v", vc, want)
		}
		delete(want, vc)
		lan.Switches()[0].Deliver(netsim.Unit{WireBytes: atm.CellSize, DstHost: 1, VC: vc})
	}
	eng.Run()
	if len(want) != 0 || arrived != 2 {
		t.Fatalf("VCs never written: %v; %d of 2 cells routed to host 1", want, arrived)
	}
}

// TestChannelRidesOwnVCOverUDP: a nonzero-channel message reassembles on
// its own VC at the receiver, and the default mesh's VC never sees a cell.
func TestChannelRidesOwnVCOverUDP(t *testing.T) {
	net := NewNetwork()
	rtA, rtB := newRT("a"), newRT("b")
	epA, _ := net.Attach(0, rtA)
	defer epA.Close()
	epB, _ := net.Attach(1, rtB)
	defer epB.Close()
	epA.SetHandler(func(m *transport.Message) {})

	var got *transport.Message
	var waiter *mts.Thread
	epB.SetHandler(func(m *transport.Message) {
		got = m
		rtB.Unblock(waiter, false)
	})
	waiter = rtB.Create("waiter", mts.PrioDefault, func(th *mts.Thread) {
		if got == nil {
			th.Park("msg")
		}
	})
	rtA.Create("sender", mts.PrioDefault, func(th *mts.Thread) {
		epA.Send(th, &transport.Message{From: 0, To: 1, Channel: 6, Data: make([]byte, 20000)})
	})
	done := make(chan struct{}, 2)
	go func() { rtA.Run(); done <- struct{}{} }()
	go func() { rtB.Run(); done <- struct{}{} }()
	<-done
	<-done
	if got == nil || got.Channel != 6 || len(got.Data) != 20000 {
		t.Fatalf("channel-6 message not delivered intact: %+v", got)
	}
	// Close joins the reader, the only goroutine that touches rx.
	epB.Close()
	if epB.rx[atm.VCForChan(0, 1, 6)] == nil {
		t.Fatal("no reassembly state on the channel's VC")
	}
	if epB.rx[atm.VCFor(0, 1)] != nil {
		t.Fatal("cells leaked onto the default VC")
	}
}

// TestWindowRecoveryOverLossyUDP is the real-mode chaos variant of the
// credit protocol test: a windowed go-back-N channel runs over genuine
// AAL5 cells with seeded random frame loss at both receivers — destroying
// data, credit advertisements, and acks alike. Nothing is protected; the
// cumulative-credit protocol plus the window-sync timer must keep the
// window open until every message lands.
func TestWindowRecoveryOverLossyUDP(t *testing.T) {
	const (
		chID = 3
		n    = 60
	)
	net := NewNetwork()
	var procs [2]*core.Proc
	var eps [2]*Endpoint
	for i := 0; i < 2; i++ {
		rt := newRT(fmt.Sprintf("n%d", i))
		ep, err := net.Attach(transport.ProcID(i), rt)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps[i] = ep
		procs[i] = core.New(core.Config{ID: core.ProcID(i), RT: rt, Endpoint: ep})
	}
	// 25% random frame loss on both receive sides.
	eps[0].SetRecvDropRate(0.25, 7)
	eps[1].SetRecvDropRate(0.25, 8)

	mkWin := func() *core.WindowFlow {
		w := core.NewWindowFlow(4)
		w.SyncInterval = 5 * time.Millisecond
		return w
	}
	ch0 := procs[0].Open(1, core.ChannelConfig{ID: chID, Flow: mkWin(), Error: core.NewGoBackN(8, 15*time.Millisecond)})
	ch1 := procs[1].Open(0, core.ChannelConfig{ID: chID, Flow: mkWin(), Error: core.NewGoBackN(8, 15*time.Millisecond)})
	flow0 := ch0.Flow().(*core.WindowFlow)

	procs[0].TCreate("send", mts.PrioDefault, func(th *core.Thread) {
		for k := 0; k < n; k++ {
			// Fresh buffer per message: go-back-N's retransmission copies
			// alias Data, so the application must not recycle it.
			payload := make([]byte, 256)
			payload[0] = byte(k)
			ch0.Send(th, 0, payload)
			if out := flow0.Outstanding(); out > 4 {
				t.Errorf("window violated: %d outstanding", out)
			}
		}
	})
	var got []int
	procs[1].TCreate("recv", mts.PrioDefault, func(th *core.Thread) {
		for k := 0; k < n; k++ {
			data, _ := ch1.Recv(th, core.Any)
			got = append(got, int(data[0]))
		}
	})
	done := make(chan struct{}, 2)
	for _, p := range procs {
		p := p
		go func() { p.Start(); done <- struct{}{} }()
	}
	<-done
	<-done

	if len(got) != n {
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("reordered at %d: %v", i, got)
		}
	}
	if eps[0].RecvDropped()+eps[1].RecvDropped() == 0 {
		t.Fatal("fault injection never dropped a frame — test proves nothing")
	}
	t.Logf("drops: rx %d+%d frames; %d retransmissions",
		eps[0].RecvDropped(), eps[1].RecvDropped(),
		ch0.Error().(*core.GoBackN).Retransmissions())
}

func TestCloseIdempotent(t *testing.T) {
	net := NewNetwork()
	ep, _ := net.Attach(1, newRT("x"))
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ep.Close(); err != nil {
		t.Fatal("second close errored")
	}
}

// TestCellTrainsCoalesce: a burst of AAL5 frames queued on one VC must
// leave as cell-train datagrams (several frames per syscall) and still
// reassemble into the exact original message — the train is a wire-layout
// no-op because AAL5 end-of-frame cells delimit the frames inside it.
func TestCellTrainsCoalesce(t *testing.T) {
	net := NewNetwork()
	rtA, rtB := newRT("a"), newRT("b")
	epA, err := net.Attach(0, rtA)
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	epB, err := net.Attach(1, rtB)
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()

	// A 512 KB message spans ~64 AAL5 frames queued back to back on one
	// VC: exactly the burst shape the writer coalesces.
	payload := make([]byte, 512*1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var got []byte
	var waiter *mts.Thread
	epB.SetHandler(func(m *transport.Message) {
		got = m.Data
		rtB.Unblock(waiter, false)
	})
	epA.SetHandler(func(m *transport.Message) {})
	waiter = rtB.Create("waiter", mts.PrioDefault, func(th *mts.Thread) {
		if got == nil { // guard: delivery may beat the park
			th.Park("msg")
		}
	})
	rtA.Create("send", mts.PrioDefault, func(th *mts.Thread) {
		epA.Send(th, &transport.Message{From: 0, To: 1, Data: payload})
	})
	done := make(chan struct{}, 2)
	go func() { rtA.Run(); done <- struct{}{} }()
	go func() { rtB.Run(); done <- struct{}{} }()
	<-done
	<-done

	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted: got %d bytes", len(got))
	}
	trains, frames, maxCells := epA.TrainStats()
	if trains == 0 {
		t.Fatal("no cell trains formed for a 64-frame burst")
	}
	if frames <= trains {
		t.Fatalf("trains carried %d frames over %d trains — no coalescing", frames, trains)
	}
	if maxCells*53 > 60*1024 {
		t.Fatalf("train of %d cells exceeds the MTU bound", maxCells)
	}
	t.Logf("cell trains: %d trains carried %d frames (largest %d cells)", trains, frames, maxCells)
}

// TestRetainedCopiesSurviveBufferReuse: Send lets the caller reuse its buffer
// the moment it returns, and go-back-N recycles the private copies it
// retransmits from. Under frame loss in both directions a
// sender overwrites its one buffer with the next sequence's pattern right
// after every Send; every message delivered must still carry, in every
// octet, the pattern of its own sequence number — a retransmission that
// aliased the caller's buffer, or a retained copy recycled while a queued
// retransmission still read it, would deliver a later message's bytes. The
// send thread hands retransmissions to the carrier with the lane unlocked
// while acks arrive, which is the interleaving the recycling rule is for;
// run under -race.
func TestRetainedCopiesSurviveBufferReuse(t *testing.T) {
	const (
		chID = 4
		n    = 150
		size = 20_000 // three AAL5 frames
	)
	// A short Timeout keeps retransmissions in flight most of the time, which
	// is when recycling can go wrong; MaxRetries is raised to a second's worth
	// so that a receiver stalled under the race detector is waited for, not
	// given up on (the tail's give-up after the receiver has left takes as
	// long).
	mk := func() core.ErrorControl {
		g := core.NewGoBackN(8, 4*time.Millisecond)
		g.MaxRetries = 250
		return g
	}
	net := NewNetwork()
	var procs [2]*core.Proc
	var eps [2]*Endpoint
	for i := range procs {
		rt := newRT(fmt.Sprintf("go-back-n%d", i))
		ep, err := net.Attach(transport.ProcID(i), rt)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps[i] = ep
		procs[i] = core.New(core.Config{ID: core.ProcID(i), RT: rt, Endpoint: ep})
	}
	eps[0].SetRecvDropRate(0.1, 11)
	eps[1].SetRecvDropRate(0.1, 12)
	ch0 := procs[0].Open(1, core.ChannelConfig{ID: chID, Error: mk()})
	ch1 := procs[1].Open(0, core.ChannelConfig{ID: chID, Error: mk()})

	procs[0].TCreate("send", mts.PrioDefault, func(th *core.Thread) {
		buf := make([]byte, size)
		for k := 0; k < n; k++ {
			for i := range buf {
				buf[i] = byte(k)
			}
			ch0.Send(th, 0, buf)
		}
	})
	delivered := 0
	procs[1].TCreate("recv", mts.PrioDefault, func(th *core.Thread) {
		buf := make([]byte, size)
		for k := 0; k < n; k++ {
			got, _ := ch1.RecvInto(th, buf, core.Any)
			if got != size {
				t.Errorf("message %d is %d octets, want %d", k, got, size)
				return
			}
			for i, b := range buf {
				if b != byte(k) {
					t.Errorf("message %d carries %#02x at octet %d, want its own sequence's %#02x", k, b, i, byte(k))
					return
				}
			}
			delivered++
		}
	})
	done := make(chan struct{}, 2)
	for _, p := range procs {
		p := p
		go func() { p.Start(); done <- struct{}{} }()
	}
	<-done
	<-done
	retrans := ch0.Error().(*core.GoBackN).Retransmissions()
	if delivered != n || retrans == 0 {
		t.Fatalf("delivered %d of %d with %d retransmissions; want all, and loss to have forced some", delivered, n, retrans)
	}
	t.Logf("%d messages, %d frames dropped, %d retransmissions", n, eps[0].RecvDropped()+eps[1].RecvDropped(), retrans)
}
