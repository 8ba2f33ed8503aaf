package netsim

import (
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/sim"
	"repro/internal/vclock"
)

// collector records delivered units with their arrival times.
type collector struct {
	eng   *sim.Engine
	units []Unit
	times []vclock.Time
}

func (c *collector) Deliver(u Unit) {
	c.units = append(c.units, u)
	c.times = append(c.times, c.eng.Now())
}

func TestLinkSerializationAndPropagation(t *testing.T) {
	eng := sim.NewEngine()
	col := &collector{eng: eng}
	// 1000 bytes at 8000 bps = 1 s serialization; 0.5 s propagation.
	l := NewLink(eng, LinkConfig{BitsPerSecond: 8000, Propagation: 500 * time.Millisecond}, col)
	l.Send(Unit{WireBytes: 1000})
	eng.Run()
	if len(col.times) != 1 {
		t.Fatalf("%d deliveries", len(col.times))
	}
	want := vclock.Time(1500 * time.Millisecond)
	if col.times[0] != want {
		t.Fatalf("arrival = %v, want %v", col.times[0].Seconds(), want.Seconds())
	}
}

func TestLinkFIFOQueueing(t *testing.T) {
	eng := sim.NewEngine()
	col := &collector{eng: eng}
	l := NewLink(eng, LinkConfig{BitsPerSecond: 8000}, col)
	// Two back-to-back units serialize one after the other.
	l.Send(Unit{WireBytes: 1000, DstHost: 1})
	l.Send(Unit{WireBytes: 1000, DstHost: 2})
	eng.Run()
	if col.times[0] != vclock.Time(1*time.Second) || col.times[1] != vclock.Time(2*time.Second) {
		t.Fatalf("arrivals = %v,%v; want 1s,2s", col.times[0].Seconds(), col.times[1].Seconds())
	}
	if col.units[0].DstHost != 1 || col.units[1].DstHost != 2 {
		t.Fatal("FIFO order violated")
	}
	if l.UnitsSent() != 2 || l.BytesSent() != 2000 {
		t.Fatalf("stats: units=%d bytes=%d", l.UnitsSent(), l.BytesSent())
	}
}

func TestLinkPerUnitOverhead(t *testing.T) {
	eng := sim.NewEngine()
	col := &collector{eng: eng}
	l := NewLink(eng, LinkConfig{BitsPerSecond: 8000, PerUnit: 100 * time.Millisecond}, col)
	l.Send(Unit{WireBytes: 1000})
	eng.Run()
	if col.times[0] != vclock.Time(1100*time.Millisecond) {
		t.Fatalf("arrival = %v, want 1.1s", col.times[0].Seconds())
	}
}

func TestSwitchForwardsByVC(t *testing.T) {
	eng := sim.NewEngine()
	colA := &collector{eng: eng}
	colB := &collector{eng: eng}
	sw := NewSwitch(eng, "sw", 0)
	la := NewLink(eng, LinkConfig{BitsPerSecond: 1e6}, colA)
	lb := NewLink(eng, LinkConfig{BitsPerSecond: 1e6}, colB)
	vcA := atm.VC{VCI: 100}
	vcB := atm.VC{VCI: 200}
	sw.Route(vcA, la)
	sw.Route(vcB, lb)
	sw.Deliver(Unit{WireBytes: 53, VC: vcA})
	sw.Deliver(Unit{WireBytes: 53, VC: vcB})
	sw.Deliver(Unit{WireBytes: 53, VC: atm.VC{VCI: 999}}) // no route
	eng.Run()
	if len(colA.units) != 1 || len(colB.units) != 1 {
		t.Fatalf("deliveries: A=%d B=%d", len(colA.units), len(colB.units))
	}
	if sw.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", sw.Dropped())
	}
}

func TestEthernetSharedMediumSerializes(t *testing.T) {
	eng := sim.NewEngine()
	net := NewEthernetLAN(eng, 3, EthernetConfig{BitsPerSecond: 8000})
	col := &collector{eng: eng}
	net.AttachHost(2, col)
	// Hosts 0 and 1 transmit simultaneously to host 2: frames serialize on
	// the shared wire, so the second arrives a full frame time later.
	net.PathFor(0).Send(Unit{WireBytes: 1000, DstHost: 2})
	net.PathFor(1).Send(Unit{WireBytes: 1000, DstHost: 2})
	eng.Run()
	if len(col.times) != 2 {
		t.Fatalf("%d deliveries", len(col.times))
	}
	if col.times[0] != vclock.Time(1*time.Second) || col.times[1] != vclock.Time(2*time.Second) {
		t.Fatalf("arrivals %v,%v; want 1s,2s", col.times[0].Seconds(), col.times[1].Seconds())
	}
}

func TestATMLANParallelPaths(t *testing.T) {
	eng := sim.NewEngine()
	net := NewATMLAN(eng, 4, ATMLANConfig{HostLinkBps: 8000})
	col2 := &collector{eng: eng}
	col3 := &collector{eng: eng}
	net.AttachHost(2, col2)
	net.AttachHost(3, col3)
	// Disjoint pairs 0->2 and 1->3 proceed in parallel on a switch —
	// unlike the Ethernet case above, both arrive at 1 s.
	net.PathFor(0).Send(Unit{WireBytes: 1000, DstHost: 2, VC: atm.VCFor(0, 2)})
	net.PathFor(1).Send(Unit{WireBytes: 1000, DstHost: 3, VC: atm.VCFor(1, 3)})
	eng.Run()
	if len(col2.times) != 1 || len(col3.times) != 1 {
		t.Fatalf("deliveries: %d,%d", len(col2.times), len(col3.times))
	}
	// Downlink adds its own serialization: uplink 1s + downlink 1s = 2s.
	want := vclock.Time(2 * time.Second)
	if col2.times[0] != want || col3.times[0] != want {
		t.Fatalf("arrivals %v,%v; want both %v (parallel)", col2.times[0].Seconds(), col3.times[0].Seconds(), want.Seconds())
	}
}

func TestATMLANFanInQueuesOnDownlink(t *testing.T) {
	eng := sim.NewEngine()
	net := NewATMLAN(eng, 3, ATMLANConfig{HostLinkBps: 8000})
	col := &collector{eng: eng}
	net.AttachHost(2, col)
	// Both senders target host 2: uplinks are parallel but the downlink
	// serializes, so arrivals are 2s and 3s.
	net.PathFor(0).Send(Unit{WireBytes: 1000, DstHost: 2, VC: atm.VCFor(0, 2)})
	net.PathFor(1).Send(Unit{WireBytes: 1000, DstHost: 2, VC: atm.VCFor(1, 2)})
	eng.Run()
	if col.times[0] != vclock.Time(2*time.Second) || col.times[1] != vclock.Time(3*time.Second) {
		t.Fatalf("arrivals %v,%v; want 2s,3s", col.times[0].Seconds(), col.times[1].Seconds())
	}
}

func TestATMWANCrossSiteTrunk(t *testing.T) {
	eng := sim.NewEngine()
	cfg := ATMWANConfig{
		LAN:       ATMLANConfig{HostLinkBps: 1e6},
		TrunkBps:  1e6,
		TrunkProp: 10 * time.Millisecond,
	}
	net := NewATMWAN(eng, 2, cfg) // hosts 0,1 site A; 2,3 site B
	col := &collector{eng: eng}
	net.AttachHost(3, col)
	net.PathFor(0).Send(Unit{WireBytes: 125, DstHost: 3, VC: atm.VCFor(0, 3)})
	eng.Run()
	if len(col.units) != 1 {
		t.Fatal("cross-site unit not delivered")
	}
	// 3 serializations of 1ms each + 10ms trunk propagation = 13ms.
	want := vclock.Time(13 * time.Millisecond)
	if col.times[0] != want {
		t.Fatalf("arrival = %v, want %v", col.times[0].Seconds(), want.Seconds())
	}
}

func TestATMWANSameSiteAvoidsTrunk(t *testing.T) {
	eng := sim.NewEngine()
	cfg := ATMWANConfig{
		LAN:       ATMLANConfig{HostLinkBps: 1e6},
		TrunkBps:  1e3, // absurdly slow trunk; same-site must not touch it
		TrunkProp: time.Hour,
	}
	net := NewATMWAN(eng, 2, cfg)
	col := &collector{eng: eng}
	net.AttachHost(1, col)
	net.PathFor(0).Send(Unit{WireBytes: 125, DstHost: 1, VC: atm.VCFor(0, 1)})
	eng.Run()
	want := vclock.Time(2 * time.Millisecond)
	if col.times[0] != want {
		t.Fatalf("same-site arrival = %v, want %v", col.times[0].Seconds(), want.Seconds())
	}
}

func TestLinkUtilization(t *testing.T) {
	eng := sim.NewEngine()
	col := &collector{eng: eng}
	l := NewLink(eng, LinkConfig{BitsPerSecond: 8000}, col)
	l.Send(Unit{WireBytes: 1000}) // 1 s busy
	eng.Schedule(2*time.Second, func() {})
	eng.Run()
	if u := l.Utilization(); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

// TestVCForDistinct: the full mesh of an 8-host ATM LAN gives every ordered
// host pair its own VC, so a cell on atm.VCFor(s, d) reaches d and no other
// host — two pairs sharing a VC would leave one of them misrouted.
func TestVCForDistinct(t *testing.T) {
	const n = 8
	eng := sim.NewEngine()
	net := NewATMLAN(eng, n, ATMLANConfig{HostLinkBps: 100e6})
	var got [n][]Unit
	for h := 0; h < n; h++ {
		h := h
		net.AttachHost(h, PortFunc(func(u Unit) { got[h] = append(got[h], u) }))
	}
	sw := net.Switches()[0]
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				sw.Deliver(Unit{WireBytes: 53, SrcHost: s, DstHost: d, VC: atm.VCFor(s, d)})
			}
		}
	}
	eng.Run()
	if d := sw.Dropped(); d != 0 {
		t.Fatalf("switch dropped %d cells of the full mesh", d)
	}
	for h := 0; h < n; h++ {
		if len(got[h]) != n-1 {
			t.Fatalf("host %d received %d cells, want %d", h, len(got[h]), n-1)
		}
		for _, u := range got[h] {
			if u.DstHost != h || u.VC != atm.VCFor(u.SrcHost, h) {
				t.Fatalf("host %d received the cell for %d->%d on VC %+v", h, u.SrcHost, u.DstHost, u.VC)
			}
		}
	}
}

// TestChannelRoutePairInstallRemove: the per-call provisioning used by the
// signaled channel lifecycle. Installing a pair routes exactly the two
// directed VCs of one (host pair, channel); removing them makes the switch
// discard subsequent cells, as a real fabric does once a circuit is torn
// down.
func TestChannelRoutePairInstallRemove(t *testing.T) {
	eng := sim.NewEngine()
	net := NewATMLAN(eng, 3, ATMLANConfig{HostLinkBps: 100e6})
	var got [3][]Unit
	for h := 0; h < 3; h++ {
		h := h
		net.AttachHost(h, PortFunc(func(u Unit) { got[h] = append(got[h], u) }))
	}
	sw := net.Switches()[0]
	net.InstallChannelRoute(0, 1, 5)
	sw.Deliver(Unit{WireBytes: 53, DstHost: 1, VC: atm.VCForChan(0, 1, 5)})
	sw.Deliver(Unit{WireBytes: 53, DstHost: 0, VC: atm.VCForChan(1, 0, 5)})
	// The pair (0,2) was never provisioned for channel 5.
	sw.Deliver(Unit{WireBytes: 53, DstHost: 2, VC: atm.VCForChan(0, 2, 5)})
	eng.Run()
	if len(got[0]) != 1 || len(got[1]) != 1 || len(got[2]) != 0 {
		t.Fatalf("deliveries = %d,%d,%d; want 1,1,0", len(got[0]), len(got[1]), len(got[2]))
	}
	if d := sw.Dropped(); d != 1 {
		t.Fatalf("switch dropped %d, want 1 (the unprovisioned pair)", d)
	}
	net.RemoveChannelRoute(0, 1, 5)
	sw.Deliver(Unit{WireBytes: 53, DstHost: 1, VC: atm.VCForChan(0, 1, 5)})
	sw.Deliver(Unit{WireBytes: 53, DstHost: 0, VC: atm.VCForChan(1, 0, 5)})
	eng.Run()
	if len(got[0]) != 1 || len(got[1]) != 1 {
		t.Fatal("cells delivered after the channel's routes were removed")
	}
	if d := sw.Dropped(); d != 3 {
		t.Fatalf("switch dropped %d, want 3 after teardown", d)
	}
	// The default mesh (channel 0) is untouched by per-channel teardown.
	sw.Deliver(Unit{WireBytes: 53, DstHost: 1, VC: atm.VCFor(0, 1)})
	eng.Run()
	if len(got[1]) != 2 {
		t.Fatal("default-mesh VC no longer routed after channel teardown")
	}
}
