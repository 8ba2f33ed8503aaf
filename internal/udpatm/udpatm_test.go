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

func TestVCForMatchesNetsimConvention(t *testing.T) {
	vc := VCFor(2, 3)
	if vc.VPI != 0 || vc.VCI != 64+2*256+3 {
		t.Fatalf("vc = %+v", vc)
	}
	cvc := VCForChan(2, 3, 9)
	if cvc.VPI != 9 || cvc.VCI != vc.VCI {
		t.Fatalf("channel vc = %+v", cvc)
	}
	if VCForChan(2, 3, 0) != vc {
		t.Fatal("channel 0 must ride the default VC")
	}
}

// TestChannelRidesOwnVCOverUDP: a nonzero-channel message reassembles on
// its own VC and the per-VC accounting sees it there, not on the default
// mesh.
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
	if cells, _ := epA.VCStats(VCForChan(0, 1, 6)); cells == 0 {
		t.Fatal("no cells accounted on the channel's VC")
	}
	if cells, _ := epA.VCStats(VCFor(0, 1)); cells != 0 {
		t.Fatalf("%d cells leaked onto the default VC", cells)
	}
}

// TestConformingContractOverUDP: a contract at the nominal link's own
// cell rate must pass a full frame burst untouched — conformance is
// judged at each cell's modeled wire departure, not at the datagram
// burst instant.
func TestConformingContractOverUDP(t *testing.T) {
	net := NewNetwork()
	rtA, rtB := newRT("a"), newRT("b")
	epA, _ := net.Attach(0, rtA)
	defer epA.Close()
	epB, _ := net.Attach(1, rtB)
	defer epB.Close()
	epA.SetHandler(func(m *transport.Message) {})

	// ~330k cells/s is the 140 Mbps link's own cell rate; a small burst
	// tolerance suffices because departures are paced by the link clock.
	epA.ConfigureChannel(1, 8, 0, atm.NewGCRA(400000, 4))
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
		epA.Send(th, &transport.Message{From: 0, To: 1, Channel: 8, Data: make([]byte, 20000)})
	})
	done := make(chan struct{}, 2)
	go func() { rtA.Run(); done <- struct{}{} }()
	go func() { rtB.Run(); done <- struct{}{} }()
	<-done
	<-done
	if _, policed := epA.VCStats(VCForChan(0, 1, 8)); policed != 0 {
		t.Fatalf("conforming traffic policed: %d cells", policed)
	}
	if got == nil || len(got.Data) != 20000 {
		t.Fatal("conforming message not delivered intact")
	}
}

// TestPolicedChannelOverUDP: a channel whose traffic exceeds its GCRA
// contract loses cells at the emulated UNI; a conforming message on the
// default VC sails through untouched.
func TestPolicedChannelOverUDP(t *testing.T) {
	net := NewNetwork()
	rtA, rtB := newRT("a"), newRT("b")
	epA, _ := net.Attach(0, rtA)
	defer epA.Close()
	epB, _ := net.Attach(1, rtB)
	defer epB.Close()
	epA.SetHandler(func(m *transport.Message) {})

	// 100 cells/s with a 2-cell burst: a 20 KB burst (400+ cells back to
	// back) is mostly non-conforming.
	epA.ConfigureChannel(1, 4, 5, atm.NewGCRA(100, 2))

	var gotDefault *transport.Message
	var gotPoliced bool
	var waiter *mts.Thread
	epB.SetHandler(func(m *transport.Message) {
		if m.Channel == 4 {
			gotPoliced = true
			return
		}
		gotDefault = m
		rtB.Unblock(waiter, false)
	})
	waiter = rtB.Create("waiter", mts.PrioDefault, func(th *mts.Thread) {
		if gotDefault == nil {
			th.Park("msg")
		}
	})
	rtA.Create("sender", mts.PrioDefault, func(th *mts.Thread) {
		// The policed burst first (its VC has higher priority, so the
		// writer drains it before the default frame below).
		epA.Send(th, &transport.Message{From: 0, To: 1, Channel: 4, Data: make([]byte, 20000)})
		epA.Send(th, &transport.Message{From: 0, To: 1, Data: []byte("conforming")})
	})
	done := make(chan struct{}, 2)
	go func() { rtA.Run(); done <- struct{}{} }()
	go func() { rtB.Run(); done <- struct{}{} }()
	<-done
	<-done
	if gotDefault == nil || string(gotDefault.Data) != "conforming" {
		t.Fatalf("default-channel message lost: %+v", gotDefault)
	}
	if _, policed := epA.VCStats(VCForChan(0, 1, 4)); policed == 0 {
		t.Fatal("policer never fired on the over-contract channel")
	}
	if gotPoliced {
		t.Fatal("over-contract message survived cell-level policing intact")
	}
}

// TestWindowRecoveryOverPolicedUDP is the real-mode chaos variant of the
// credit protocol test: a windowed go-back-N channel runs over genuine
// AAL5 cells with its VC GCRA-policed at both emulated UNIs (bursts beyond
// the contract lose cells, so whole frames fail CRC) *and* seeded random
// frame loss at both receivers — destroying data, credit advertisements,
// and acks alike. Nothing is protected; the cumulative-credit protocol
// plus the window-sync timer must keep the window open until every
// message lands.
func TestWindowRecoveryOverPolicedUDP(t *testing.T) {
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
	// A contract tight enough that go-back-N's full-window retransmission
	// bursts (8 × ~7 cells back to back) overrun it, plus 25% random frame
	// loss on both receive sides.
	eps[0].ConfigureChannel(1, chID, 0, atm.NewGCRA(5e4, 30))
	eps[1].ConfigureChannel(0, chID, 0, atm.NewGCRA(5e4, 30))
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
	_, policed0 := eps[0].VCStats(VCForChan(0, 1, chID))
	t.Logf("drops: rx %d+%d frames, %d cells policed at the sender UNI; %d retransmissions",
		eps[0].RecvDropped(), eps[1].RecvDropped(), policed0,
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
// the moment it returns, and the error-control disciplines recycle the
// private copies they retransmit from. Under frame loss in both directions a
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
	for name, mk := range map[string]func() core.ErrorControl{
		"go-back-n": func() core.ErrorControl {
			g := core.NewGoBackN(8, 4*time.Millisecond)
			g.MaxRetries = 250
			return g
		},
		"selective-repeat": func() core.ErrorControl {
			s := core.NewSelectiveRepeat(8, 4*time.Millisecond)
			s.MaxRetries = 250
			return s
		},
	} {
		net := NewNetwork()
		var procs [2]*core.Proc
		var eps [2]*Endpoint
		for i := range procs {
			rt := newRT(fmt.Sprintf("%s%d", name, i))
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
					t.Errorf("%s: message %d is %d octets, want %d", name, k, got, size)
					return
				}
				for i, b := range buf {
					if b != byte(k) {
						t.Errorf("%s: message %d carries %#02x at octet %d, want its own sequence's %#02x", name, k, b, i, byte(k))
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
		var retrans int64
		switch ec := ch0.Error().(type) {
		case *core.GoBackN:
			retrans = ec.Retransmissions()
		case *core.SelectiveRepeat:
			retrans = ec.Retransmissions()
		}
		if delivered != n || retrans == 0 {
			t.Fatalf("%s: delivered %d of %d with %d retransmissions; want all, and loss to have forced some", name, delivered, n, retrans)
		}
		t.Logf("%s: %d messages, %d frames dropped, %d retransmissions", name, n, eps[0].RecvDropped()+eps[1].RecvDropped(), retrans)
	}
}
