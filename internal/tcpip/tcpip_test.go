package tcpip

import (
	"testing"
	"time"

	"repro/internal/mts"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

func TestChecksumKnownVectors(t *testing.T) {
	// RFC 1071 example: the checksum of 00 01 f2 03 f4 f5 f6 f7 is the
	// complement of ddf2+... — verify via the defining property below and
	// a couple of fixed points.
	if got := Checksum([]byte{}); got != 0xFFFF {
		t.Fatalf("checksum(empty) = %04x, want ffff", got)
	}
	if got := Checksum([]byte{0xFF, 0xFF}); got != 0x0000 {
		t.Fatalf("checksum(ffff) = %04x, want 0000", got)
	}
}

func TestChecksumVerifyProperty(t *testing.T) {
	// Appending the checksum makes the total sum verify to zero.
	data := []byte{0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7}
	ck := Checksum(data)
	withCk := append(append([]byte{}, data...), byte(ck>>8), byte(ck))
	if got := Checksum(withCk); got != 0 {
		t.Fatalf("verification sum = %04x, want 0", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	a := Checksum([]byte{1, 2, 3})
	b := Checksum([]byte{1, 2, 3, 0})
	if a != b {
		t.Fatalf("odd-length padding mismatch: %04x vs %04x", a, b)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	orig := Checksum(data)
	data[50] ^= 0x04
	if Checksum(data) == orig {
		t.Fatal("checksum missed corruption")
	}
}

func TestCostModelArithmetic(t *testing.T) {
	c := CostModel{
		PerMessage:  time.Millisecond,
		PerByteSend: time.Microsecond,
		PerByteRecv: 2 * time.Microsecond,
		MTU:         1000,
	}
	if got := c.SendCost(500); got != time.Millisecond+500*time.Microsecond {
		t.Fatalf("SendCost = %v", got)
	}
	if got := c.RecvCost(500); got != time.Millisecond+1000*time.Microsecond {
		t.Fatalf("RecvCost = %v", got)
	}
	if c.Frames(0) != 1 || c.Frames(1000) != 1 || c.Frames(1001) != 2 {
		t.Fatal("Frames boundary arithmetic wrong")
	}
}

// buildPair constructs two simulated hosts on a private Ethernet.
func buildPair(t *testing.T, cost CostModel) (*sim.Engine, *netsim.Network, [2]*sim.Node, [2]*SimTCP) {
	t.Helper()
	eng := sim.NewEngine()
	net := netsim.NewEthernetLAN(eng, 2, netsim.EthernetConfig{BitsPerSecond: 8e6})
	var nodes [2]*sim.Node
	var eps [2]*SimTCP
	for i := 0; i < 2; i++ {
		nodes[i] = eng.NewNode("host")
		eps[i] = NewSimTCP(nodes[i], net, i, cost)
	}
	return eng, net, nodes, eps
}

func TestSimTCPDelivers(t *testing.T) {
	cost := CostModel{PerMessage: time.Millisecond, PerByteSend: time.Microsecond, PerByteRecv: time.Microsecond, MTU: 1460, FrameOverhead: 58}
	eng, _, nodes, eps := buildPair(t, cost)
	var got *transport.Message
	eps[1].SetHandler(func(m *transport.Message) { got = m })
	eps[0].SetHandler(func(m *transport.Message) {})
	nodes[0].RT().Create("send", mts.PrioDefault, func(th *mts.Thread) {
		eps[0].Send(th, &transport.Message{From: 0, To: 1, Tag: 9, Data: make([]byte, 5000)})
	})
	eng.Run()
	if got == nil || got.Tag != 9 || len(got.Data) != 5000 {
		t.Fatalf("got %+v", got)
	}
	if eps[0].MsgsSent() != 1 || eps[0].BytesSent() != 5000 {
		t.Fatalf("stats: %d msgs %d bytes", eps[0].MsgsSent(), eps[0].BytesSent())
	}
}

// TestSimTCPDropsUndecodableFrame: a message whose bytes arrive corrupted
// fails to decode; it is counted in RxDropped and dropped, never a panic,
// and the endpoint goes on delivering.
func TestSimTCPDropsUndecodableFrame(t *testing.T) {
	cost := CostModel{PerMessage: time.Millisecond, MTU: 1460}
	eng, _, nodes, eps := buildPair(t, cost)
	delivered := 0
	eps[1].SetHandler(func(m *transport.Message) { delivered++ })
	eps[0].SetHandler(func(m *transport.Message) {})
	bad := wire.GetBuf(64)
	bad.B = append(bad.B, "not a marshalled message"...)
	eps[1].deliverFrame(netsim.Unit{Payload: &msgFrag{src: 0, last: true, buf: bad}})
	if eps[1].RxDropped() != 1 || delivered != 0 {
		t.Fatalf("after a corrupt frame: RxDropped %d, delivered %d; want 1 and 0", eps[1].RxDropped(), delivered)
	}
	nodes[0].RT().Create("send", mts.PrioDefault, func(th *mts.Thread) {
		eps[0].Send(th, &transport.Message{From: 0, To: 1, Data: make([]byte, 100)})
	})
	eng.Run()
	if delivered != 1 || eps[1].RxDropped() != 1 {
		t.Fatalf("after a valid message: delivered %d, RxDropped %d; want 1 and 1", delivered, eps[1].RxDropped())
	}
}

func TestSimTCPTimingComponents(t *testing.T) {
	// 1 KB payload plus the message header, MTU large, over 8 Mbps.
	// Sender CPU = PerMessage + wire_len*PerByteSend; the frame then
	// serializes after the CPU burst; delivery = CPU + wire time.
	cost := CostModel{PerMessage: time.Millisecond, PerByteSend: time.Microsecond, MTU: 8192, FrameOverhead: 58}
	eng, _, nodes, eps := buildPair(t, cost)
	var arrived vclock.Time
	eps[1].SetHandler(func(m *transport.Message) { arrived = eng.Now() })
	eps[0].SetHandler(func(m *transport.Message) {})
	nodes[0].RT().Create("send", mts.PrioDefault, func(th *mts.Thread) {
		eps[0].Send(th, &transport.Message{From: 0, To: 1, Data: make([]byte, 1000)})
	})
	eng.Run()
	wireLen := 1000 + transport.HeaderSize
	cpu := cost.SendCost(wireLen)
	wire := time.Duration(float64((wireLen+58)*8) / 8e6 * 1e9)
	want := cpu + wire
	gotD := time.Duration(arrived)
	if diff := gotD - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("arrival = %v, want ~%v", gotD, want)
	}
}

func TestSimTCPSenderBlockedForDrain(t *testing.T) {
	// With a slow wire, Send must not return before serialization ends.
	cost := CostModel{PerMessage: 0, PerByteSend: 0, MTU: 100, FrameOverhead: 0}
	eng := sim.NewEngine()
	net := netsim.NewEthernetLAN(eng, 2, netsim.EthernetConfig{BitsPerSecond: 8000}) // 1 KB/s
	n0 := eng.NewNode("h0")
	n1 := eng.NewNode("h1")
	e0 := NewSimTCP(n0, net, 0, cost)
	e1 := NewSimTCP(n1, net, 1, cost)
	e0.SetHandler(func(m *transport.Message) {})
	e1.SetHandler(func(m *transport.Message) {})
	var sendDone vclock.Time
	n0.RT().Create("send", mts.PrioDefault, func(th *mts.Thread) {
		// Payload sized so the wire message is exactly 1000 bytes = 1 s.
		e0.Send(th, &transport.Message{From: 0, To: 1, Data: make([]byte, 1000-transport.HeaderSize)})
		sendDone = eng.Now()
	})
	eng.Run()
	if sendDone != vclock.Time(time.Second) {
		t.Fatalf("send returned at %v, want 1s (wire drain)", sendDone.Seconds())
	}
}

func TestSimTCPFragmentation(t *testing.T) {
	cost := CostModel{MTU: 100, FrameOverhead: 10, PerMessage: 0, PerByteSend: 0}
	eng, net, nodes, eps := buildPair(t, cost)
	var got *transport.Message
	eps[1].SetHandler(func(m *transport.Message) { got = m })
	eps[0].SetHandler(func(m *transport.Message) {})
	payload := make([]byte, 950)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	nodes[0].RT().Create("send", mts.PrioDefault, func(th *mts.Thread) {
		eps[0].Send(th, &transport.Message{From: 0, To: 1, Data: payload})
	})
	eng.Run()
	if got == nil {
		t.Fatal("fragmented message not delivered")
	}
	for i := range payload {
		if got.Data[i] != payload[i] {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
	// (950+28) bytes at MTU 100 = 10 frames.
	if n := net.EthernetMedium().UnitsSent(); n != 10 {
		t.Fatalf("frames = %d, want 10", n)
	}
}

func TestSimTCPInterleavedSources(t *testing.T) {
	// Two senders to one receiver: both messages arrive intact despite
	// frame interleaving on the shared wire.
	cost := CostModel{MTU: 64, FrameOverhead: 0}
	eng := sim.NewEngine()
	net := netsim.NewEthernetLAN(eng, 3, netsim.EthernetConfig{BitsPerSecond: 8e6})
	var eps [3]*SimTCP
	var nodes [3]*sim.Node
	for i := 0; i < 3; i++ {
		nodes[i] = eng.NewNode("h")
		eps[i] = NewSimTCP(nodes[i], net, i, cost)
		eps[i].SetHandler(func(m *transport.Message) {})
	}
	var got []*transport.Message
	eps[2].SetHandler(func(m *transport.Message) { got = append(got, m) })
	for s := 0; s < 2; s++ {
		s := s
		nodes[s].RT().Create("send", mts.PrioDefault, func(th *mts.Thread) {
			eps[s].Send(th, &transport.Message{From: transport.ProcID(s), To: 2, Tag: s, Data: make([]byte, 500)})
		})
	}
	eng.Run()
	if len(got) != 2 {
		t.Fatalf("%d messages delivered, want 2", len(got))
	}
}
