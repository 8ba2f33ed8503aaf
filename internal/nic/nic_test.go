package nic

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/mts"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/work"
)

func defaultCfg() Config {
	return Config{
		NumBuffers:      4,
		BufferSize:      4096,
		TrapCost:        50 * time.Microsecond,
		HostCopyPerByte: 100 * time.Nanosecond,
	}
}

func buildATMPair(nBufs int, bufSize int, linkBps float64) (*sim.Engine, [2]*sim.Node, [2]*SimATM) {
	eng := sim.NewEngine()
	net := netsim.NewATMLAN(eng, 2, netsim.ATMLANConfig{HostLinkBps: linkBps, SwitchLatency: 10 * time.Microsecond})
	cfg := defaultCfg()
	cfg.NumBuffers = nBufs
	cfg.BufferSize = bufSize
	var nodes [2]*sim.Node
	var eps [2]*SimATM
	for i := 0; i < 2; i++ {
		nodes[i] = eng.NewNode("host")
		eps[i] = NewSimATM(nodes[i], net, i, cfg)
		eps[i].SetHandler(func(m *transport.Message) {})
	}
	return eng, nodes, eps
}

func TestSimATMDelivers(t *testing.T) {
	eng, nodes, eps := buildATMPair(4, 4096, 140e6)
	payload := make([]byte, 10000)
	for i := range payload {
		payload[i] = byte(i * 11)
	}
	var got *transport.Message
	eps[1].SetHandler(func(m *transport.Message) { got = m })
	nodes[0].RT().Create("send", mts.PrioDefault, func(th *mts.Thread) {
		eps[0].Send(th, &transport.Message{From: 0, To: 1, Tag: 3, Data: payload})
	})
	eng.Run()
	if got == nil || got.Tag != 3 {
		t.Fatal("message not delivered")
	}
	for i := range payload {
		if got.Data[i] != payload[i] {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
}

func TestSimATMCellAccounting(t *testing.T) {
	eng, nodes, eps := buildATMPair(2, 1024, 140e6)
	nodes[0].RT().Create("send", mts.PrioDefault, func(th *mts.Thread) {
		eps[0].Send(th, &transport.Message{From: 0, To: 1, Data: make([]byte, 3000)})
	})
	eng.Run()
	// wire = 3000+28 header = 3028 bytes; chunk payload = 1024-8 = 1016;
	// chunks: 3 (1016,1016,996); AAL5 cells: ceil((1016+8+8)/48)=22 per
	// full chunk (chunk incl. 8B chunk header = 1024 → +8 trailer → 1032
	// → 22 cells), last chunk 996+8=1004 → +8 → 1012/48 → 22 cells.
	if eps[0].CellsSent() == 0 {
		t.Fatal("no cells counted")
	}
	wantMin := int64(3028 / 48)
	if eps[0].CellsSent() < wantMin {
		t.Fatalf("cells = %d, want >= %d", eps[0].CellsSent(), wantMin)
	}
}

func TestSimATMSendReturnsBeforeWireDrain(t *testing.T) {
	// The HSM send hands buffers to the NIC and returns; the wire drains
	// afterwards. With a very slow link, send-return time is dominated by
	// host copies (buffer acquisition for the last chunks), strictly less
	// than full wire time.
	eng, nodes, eps := buildATMPair(8, 65536, 1e6) // one-buffer-covers-all
	var sendDone, arrived vclock.Time
	eps[1].SetHandler(func(m *transport.Message) { arrived = eng.Now() })
	nodes[0].RT().Create("send", mts.PrioDefault, func(th *mts.Thread) {
		eps[0].Send(th, &transport.Message{From: 0, To: 1, Data: make([]byte, 20000)})
		sendDone = eng.Now()
	})
	eng.Run()
	if sendDone == 0 || arrived == 0 {
		t.Fatal("missing timestamps")
	}
	if sendDone >= arrived {
		t.Fatalf("send returned at %v, arrival %v: no overlap", sendDone.Seconds(), arrived.Seconds())
	}
}

func TestMultiBufferPipelineBeatsSingle(t *testing.T) {
	// Figure 2's claim: with host copy and wire speeds comparable, k>=2
	// buffers overlap copy with transmission and finish sooner than k=1.
	run := func(nBufs int) time.Duration {
		eng, nodes, eps := buildATMPair(nBufs, 4096, 50e6)
		var arrived vclock.Time
		eps[1].SetHandler(func(m *transport.Message) { arrived = eng.Now() })
		nodes[0].RT().Create("send", mts.PrioDefault, func(th *mts.Thread) {
			eps[0].Send(th, &transport.Message{From: 0, To: 1, Data: make([]byte, 64*1024)})
		})
		eng.Run()
		return time.Duration(arrived)
	}
	single := run(1)
	double := run(2)
	quad := run(4)
	if double >= single {
		t.Fatalf("2 buffers (%v) not faster than 1 (%v)", double, single)
	}
	if quad > double {
		t.Fatalf("4 buffers (%v) slower than 2 (%v)", quad, double)
	}
	// The pipeline should approach max(copy, wire) instead of copy+wire:
	// expect at least 25% improvement in this configuration.
	if gain := float64(single-double) / float64(single); gain < 0.25 {
		t.Fatalf("pipeline gain = %.1f%%, want >= 25%%", gain*100)
	}
}

func TestSimATMBidirectional(t *testing.T) {
	eng, nodes, eps := buildATMPair(4, 4096, 140e6)
	var got0, got1 bool
	eps[0].SetHandler(func(m *transport.Message) { got0 = true })
	eps[1].SetHandler(func(m *transport.Message) { got1 = true })
	nodes[0].RT().Create("send", mts.PrioDefault, func(th *mts.Thread) {
		eps[0].Send(th, &transport.Message{From: 0, To: 1, Data: make([]byte, 1000)})
	})
	nodes[1].RT().Create("send", mts.PrioDefault, func(th *mts.Thread) {
		eps[1].Send(th, &transport.Message{From: 1, To: 0, Data: make([]byte, 1000)})
	})
	eng.Run()
	if !got0 || !got1 {
		t.Fatalf("bidirectional delivery failed: %v %v", got0, got1)
	}
}

func TestSimATMBackToBackMessages(t *testing.T) {
	eng, nodes, eps := buildATMPair(4, 2048, 140e6)
	var got []*transport.Message
	eps[1].SetHandler(func(m *transport.Message) { got = append(got, m) })
	nodes[0].RT().Create("send", mts.PrioDefault, func(th *mts.Thread) {
		for i := 0; i < 5; i++ {
			eps[0].Send(th, &transport.Message{From: 0, To: 1, Tag: i, Data: make([]byte, 5000)})
		}
	})
	eng.Run()
	if len(got) != 5 {
		t.Fatalf("%d messages, want 5", len(got))
	}
	for i, m := range got {
		if m.Tag != i {
			t.Fatalf("out of order: msg %d has tag %d", i, m.Tag)
		}
	}
}

func TestRecvSendCostArithmetic(t *testing.T) {
	cfg := defaultCfg()
	eng := sim.NewEngine()
	net := netsim.NewATMLAN(eng, 2, netsim.ATMLANConfig{HostLinkBps: 140e6})
	node := eng.NewNode("h")
	a := NewSimATM(node, net, 0, cfg)
	want := cfg.TrapCost + 1000*cfg.HostCopyPerByte
	if got := a.RecvCost(1000); got != want {
		t.Fatalf("RecvCost = %v, want %v", got, want)
	}
	if got := a.SendCost(1000); got != want {
		t.Fatalf("SendCost = %v, want %v", got, want)
	}
}

func TestChannelRidesOwnVC(t *testing.T) {
	eng := sim.NewEngine()
	net := netsim.NewATMLAN(eng, 2, netsim.ATMLANConfig{HostLinkBps: 140e6})
	net.InstallChannelRoutes(5)
	cfg := defaultCfg()
	var nodes [2]*sim.Node
	var eps [2]*SimATM
	for i := 0; i < 2; i++ {
		nodes[i] = eng.NewNode("host")
		eps[i] = NewSimATM(nodes[i], net, i, cfg)
		eps[i].SetHandler(func(m *transport.Message) {})
	}
	var got *transport.Message
	eps[1].SetHandler(func(m *transport.Message) { got = m })
	nodes[0].RT().Create("send", mts.PrioDefault, func(th *mts.Thread) {
		eps[0].Send(th, &transport.Message{From: 0, To: 1, Channel: 5, Data: make([]byte, 3000)})
	})
	eng.Run()
	if got == nil || got.Channel != 5 {
		t.Fatalf("channel-5 message not delivered intact: %+v", got)
	}
	// The traffic rode the channel's own VC (VPI 5), not the default mesh.
	chVC := netsim.VCForChan(0, 1, 5)
	if cells, _ := eps[0].VCStats(chVC); cells == 0 {
		t.Fatal("no cells accounted on the channel's VC")
	}
	if cells, _ := eps[0].VCStats(netsim.VCFor(0, 1)); cells != 0 {
		t.Fatalf("%d cells leaked onto the default VC", cells)
	}
}

func TestChannelWithoutRoutesIsDropped(t *testing.T) {
	// A channel VC nobody provisioned: the switch discards the cells, as a
	// real fabric does for traffic without a circuit.
	eng, nodes, eps := buildATMPair(4, 4096, 140e6)
	delivered := false
	eps[1].SetHandler(func(m *transport.Message) { delivered = true })
	nodes[0].RT().Create("send", mts.PrioDefault, func(th *mts.Thread) {
		eps[0].Send(th, &transport.Message{From: 0, To: 1, Channel: 7, Data: make([]byte, 100)})
	})
	eng.Run()
	if delivered {
		t.Fatal("message crossed a VC with no route")
	}
}

func TestPoliceChannelDropsNonConformingCells(t *testing.T) {
	eng := sim.NewEngine()
	net := netsim.NewATMLAN(eng, 2, netsim.ATMLANConfig{HostLinkBps: 140e6})
	net.InstallChannelRoutes(3)
	cfg := defaultCfg()
	var nodes [2]*sim.Node
	var eps [2]*SimATM
	for i := 0; i < 2; i++ {
		nodes[i] = eng.NewNode("host")
		eps[i] = NewSimATM(nodes[i], net, i, cfg)
		eps[i].SetHandler(func(m *transport.Message) {})
	}
	// Contract: 1000 cells/s with a 4-cell burst. A 10 KB message bursts
	// ~200+ cells back to back, so most of them violate and are dropped at
	// the adapter; the message cannot reassemble.
	eps[0].PoliceChannel(1, 3, atm.NewGCRA(1000, 4))
	delivered := false
	eps[1].SetHandler(func(m *transport.Message) { delivered = true })
	nodes[0].RT().Create("send", mts.PrioDefault, func(th *mts.Thread) {
		eps[0].Send(th, &transport.Message{From: 0, To: 1, Channel: 3, Data: make([]byte, 10000)})
	})
	eng.Run()
	if eps[0].PolicedCells() == 0 {
		t.Fatal("policer never fired")
	}
	sent, policed := eps[0].VCStats(netsim.VCForChan(0, 1, 3))
	if policed == 0 || sent+policed < 200 {
		t.Fatalf("vc stats: sent=%d policed=%d", sent, policed)
	}
	if delivered {
		t.Fatal("message survived despite policed cells")
	}
}

func TestConformingChannelPassesPolicer(t *testing.T) {
	// A generous contract lets the same burst through untouched.
	eng := sim.NewEngine()
	net := netsim.NewATMLAN(eng, 2, netsim.ATMLANConfig{HostLinkBps: 140e6})
	net.InstallChannelRoutes(3)
	cfg := defaultCfg()
	var nodes [2]*sim.Node
	var eps [2]*SimATM
	for i := 0; i < 2; i++ {
		nodes[i] = eng.NewNode("host")
		eps[i] = NewSimATM(nodes[i], net, i, cfg)
		eps[i].SetHandler(func(m *transport.Message) {})
	}
	eps[0].PoliceChannel(1, 3, atm.NewGCRA(1e6, 1000))
	var got *transport.Message
	eps[1].SetHandler(func(m *transport.Message) { got = m })
	nodes[0].RT().Create("send", mts.PrioDefault, func(th *mts.Thread) {
		eps[0].Send(th, &transport.Message{From: 0, To: 1, Channel: 3, Data: make([]byte, 10000)})
	})
	eng.Run()
	if eps[0].PolicedCells() != 0 {
		t.Fatalf("conforming traffic policed: %d cells", eps[0].PolicedCells())
	}
	if got == nil || len(got.Data) != 10000 {
		t.Fatal("conforming message not delivered")
	}
}

func TestConfigValidate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-buffer config not rejected")
		}
	}()
	Config{NumBuffers: 0, BufferSize: 4096}.Validate()
}

// TestWindowRecoveryOverLossyATM runs the full NCS stack over the adapter
// model with random rx-frame loss hitting *every* frame — data, credit
// advertisements, and go-back-N acks alike (RxDropRate, seeded, so the
// virtual-time run replays deterministically). The windowed channel must
// sustain its window end to end: cumulative credits plus the window-sync
// timer recover the flow tier while go-back-N recovers the data tier.
func TestWindowRecoveryOverLossyATM(t *testing.T) {
	const (
		chID = 3
		n    = 40
	)
	eng := sim.NewEngine()
	eng.SetMaxTime(time.Hour)
	net := netsim.NewATMLAN(eng, 2, netsim.ATMLANConfig{HostLinkBps: 140e6})
	net.InstallChannelRoutes(chID)
	cfg := defaultCfg()
	cfg.RxDropRate = 0.2
	cfg.RxDropSeed = 1995
	var eps [2]*SimATM
	var procs [2]*core.Proc
	for i := 0; i < 2; i++ {
		node := eng.NewNode(fmt.Sprintf("host%d", i))
		eps[i] = NewSimATM(node, net, i, cfg)
		procs[i] = core.New(core.Config{
			ID:       core.ProcID(i),
			RT:       node.RT(),
			Endpoint: eps[i],
			Compute:  work.Sim(node),
			After:    func(d time.Duration, fn func()) { eng.Schedule(d, fn) },
		})
	}
	mkWin := func() *core.WindowFlow {
		w := core.NewWindowFlow(4)
		w.SyncInterval = 5 * time.Millisecond
		return w
	}
	ch0 := procs[0].Open(1, core.ChannelConfig{ID: chID, Flow: mkWin(), Error: core.NewGoBackN(8, 10*time.Millisecond)})
	ch1 := procs[1].Open(0, core.ChannelConfig{ID: chID, Flow: mkWin(), Error: core.NewGoBackN(8, 10*time.Millisecond)})
	flow0 := ch0.Flow().(*core.WindowFlow)

	procs[0].TCreate("send", mts.PrioDefault, func(th *core.Thread) {
		for k := 0; k < n; k++ {
			ch0.Send(th, 0, []byte{byte(k)})
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
	eng.Run()

	if len(got) != n {
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("reordered at %d: %v", i, got)
		}
	}
	if eps[0].RxDropped()+eps[1].RxDropped() == 0 {
		t.Fatal("fault injection never dropped a frame — test proves nothing")
	}
}
