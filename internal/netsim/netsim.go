// Package netsim models the two networks of the paper's evaluation in
// virtual time: the shared 10 Mbps Ethernet LAN of SPARC ELCs, and the
// NYNET ATM testbed (Figure 1) — hosts on 140 Mbps TAXI links into FORE
// switches, with OC-3/DS-3/OC-48 trunks for the wide-area experiments.
//
// The model is unit-granular: a transmission unit is an ATM cell or an
// Ethernet frame. Each Link is a FIFO server with a serialization rate and
// a propagation delay, so competing transfers on a shared resource (the
// Ethernet medium, a trunk between switches) serialize, while transfers on
// disjoint switched paths proceed in parallel — the structural difference
// between the two platforms that Tables 1-3 reflect.
package netsim

import (
	"fmt"
	"time"

	"repro/internal/atm"
	"repro/internal/sim"
	"repro/internal/vclock"
)

// Unit is one transmission unit (an ATM cell or an Ethernet frame).
type Unit struct {
	// WireBytes is the size on the wire, including framing.
	WireBytes int
	// SrcHost is the transmitting host ID; the shared-Ethernet contention
	// model uses it to count distinct contending stations.
	SrcHost int
	// DstHost is the destination host ID, used by media and switches for
	// delivery and (for Ethernet) addressing.
	DstHost int
	// VC is the ATM virtual channel; zero value for Ethernet frames.
	VC atm.VC
	// Payload carries the upper layer's unit (e.g. a pointer to a 53-octet
	// wire cell, or a message fragment descriptor). A pointer boxes into
	// the interface without an allocation.
	Payload any
}

// Port consumes delivered units. Deliver runs in the engine's scheduler
// domain at the unit's arrival time.
type Port interface {
	Deliver(u Unit)
}

// PortFunc adapts a function to the Port interface.
type PortFunc func(u Unit)

// Deliver implements Port.
func (f PortFunc) Deliver(u Unit) { f(u) }

// Link is a unidirectional FIFO link: units serialize at Rate and arrive
// after the propagation delay. Queueing is implicit in the busy horizon.
type Link struct {
	eng  *sim.Engine
	name string
	// bps is the usable payload bit rate.
	bps float64
	// prop is the propagation delay.
	prop time.Duration
	// perUnit is a fixed per-unit latency (switch forwarding, adapter
	// overhead) added before serialization.
	perUnit time.Duration
	dst     Port

	busyUntil vclock.Time

	// Stats.
	unitsSent int64
	bytesSent int64
	busyTime  time.Duration
}

// LinkConfig parameterizes a Link.
type LinkConfig struct {
	Name          string
	BitsPerSecond float64
	Propagation   time.Duration
	PerUnit       time.Duration
}

// NewLink creates a link delivering into dst.
func NewLink(eng *sim.Engine, cfg LinkConfig, dst Port) *Link {
	if cfg.BitsPerSecond <= 0 {
		panic("netsim: link needs positive rate")
	}
	return &Link{
		eng:     eng,
		name:    cfg.Name,
		bps:     cfg.BitsPerSecond,
		prop:    cfg.Propagation,
		perUnit: cfg.PerUnit,
		dst:     dst,
	}
}

// SetDst re-targets the link (used while wiring topologies).
func (l *Link) SetDst(p Port) { l.dst = p }

// Name returns the link label.
func (l *Link) Name() string { return l.name }

// UnitsSent returns the number of units transmitted.
func (l *Link) UnitsSent() int64 { return l.unitsSent }

// BytesSent returns the number of wire bytes transmitted.
func (l *Link) BytesSent() int64 { return l.bytesSent }

// BusyTime returns cumulative serialization time.
func (l *Link) BusyTime() time.Duration { return l.busyTime }

// Utilization returns busy time as a fraction of elapsed virtual time.
func (l *Link) Utilization() float64 {
	now := l.eng.Now()
	if now == 0 {
		return 0
	}
	return float64(l.busyTime) / float64(now)
}

// serialization returns the time to clock n bytes onto the wire.
func (l *Link) serialization(n int) time.Duration {
	return time.Duration(float64(n*8) / l.bps * float64(time.Second))
}

// Send enqueues a unit. It returns the virtual time at which the unit will
// finish serializing (the sender's channel becomes free); arrival at the
// far end is that plus propagation.
func (l *Link) Send(u Unit) vclock.Time {
	now := l.eng.Now()
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	txDone := start.Add(l.perUnit + l.serialization(u.WireBytes))
	l.busyUntil = txDone
	l.unitsSent++
	l.bytesSent += int64(u.WireBytes)
	l.busyTime += l.serialization(u.WireBytes)
	arrive := txDone.Add(l.prop)
	dst := l.dst
	l.eng.ScheduleAt(arrive, func() { dst.Deliver(u) })
	return txDone
}

// FreeAt returns when the link's transmitter becomes idle.
func (l *Link) FreeAt() vclock.Time { return l.busyUntil }

// Switch is an output-queued ATM cell switch: cells are forwarded by
// VPI/VCI to an output link after a fixed switching latency. Unknown VCs
// are counted and dropped, as a real switch would discard them.
type Switch struct {
	eng     *sim.Engine
	name    string
	latency time.Duration
	table   map[atm.VC]*Link
	dropped int64
}

// NewSwitch creates an empty switch.
func NewSwitch(eng *sim.Engine, name string, latency time.Duration) *Switch {
	return &Switch{eng: eng, name: name, latency: latency, table: make(map[atm.VC]*Link)}
}

// Route installs a forwarding entry: cells on vc leave through out.
func (s *Switch) Route(vc atm.VC, out *Link) { s.table[vc] = out }

// Unroute removes a forwarding entry; cells still in flight on vc are
// dropped on arrival, exactly as a fabric discards traffic after a circuit
// is released. Idempotent.
func (s *Switch) Unroute(vc atm.VC) { delete(s.table, vc) }

// Dropped returns the number of cells discarded for want of a route.
func (s *Switch) Dropped() int64 { return s.dropped }

// Deliver implements Port: an arriving cell is forwarded along its VC's
// route.
func (s *Switch) Deliver(u Unit) {
	out, ok := s.table[u.VC]
	if !ok {
		s.dropped++
		return
	}
	if s.latency > 0 {
		s.eng.Schedule(s.latency, func() { out.Send(u) })
	} else {
		out.Send(u)
	}
}

// Ethernet is a shared half-duplex medium: every frame from every host
// serializes on one channel. This is the structural property that makes the
// paper's Ethernet rows degrade as node count grows (Table 2's p4 column
// gets *worse* with more nodes).
type Ethernet struct {
	eng *sim.Engine
	// medium is the single shared channel; frames from all hosts pass
	// through it.
	medium *Link
	hosts  map[int]Port
	slot   time.Duration
	// pendingUntil tracks, per source host, when its queued frames will
	// have finished serializing; hosts with a future horizon are
	// "contending".
	pendingUntil map[int]vclock.Time
	backoffTime  time.Duration
}

// EthernetConfig parameterizes the medium.
type EthernetConfig struct {
	BitsPerSecond float64       // payload-effective rate
	Propagation   time.Duration // end-to-end propagation
	PerFrame      time.Duration // preamble + inter-frame gap
	// ContentionSlot, when positive, approximates CSMA/CD collision
	// backoff: each frame pays one slot per *other* station that has
	// frames outstanding on the medium at enqueue time. Zero disables
	// the model (the calibrated platforms default to off; the Table 2
	// divergence ablation turns it on).
	ContentionSlot time.Duration
}

// NewEthernet creates the shared medium.
func NewEthernet(eng *sim.Engine, cfg EthernetConfig) *Ethernet {
	e := &Ethernet{
		eng:          eng,
		hosts:        make(map[int]Port),
		slot:         cfg.ContentionSlot,
		pendingUntil: make(map[int]vclock.Time),
	}
	e.medium = NewLink(eng, LinkConfig{
		Name:          "ether",
		BitsPerSecond: cfg.BitsPerSecond,
		Propagation:   cfg.Propagation,
		PerUnit:       cfg.PerFrame,
	}, PortFunc(e.deliverToHost))
	return e
}

// Attach registers a host's receive port.
func (e *Ethernet) Attach(hostID int, p Port) { e.hosts[hostID] = p }

// Send transmits a frame to its destination host across the shared medium,
// paying collision backoff when other stations are contending.
func (e *Ethernet) Send(u Unit) vclock.Time {
	if e.slot > 0 {
		now := e.eng.Now()
		contenders := 0
		for h, until := range e.pendingUntil {
			if h != u.SrcHost && until > now {
				contenders++
			}
		}
		if contenders > 0 {
			// Backoff occupies the medium: model it as stretching this
			// frame's serialization.
			penalty := time.Duration(contenders) * e.slot
			e.backoffTime += penalty
			u.WireBytes += int(float64(penalty) / float64(time.Second) * e.medium.bps / 8)
		}
	}
	done := e.medium.Send(u)
	if e.slot > 0 {
		e.pendingUntil[u.SrcHost] = done
	}
	return done
}

// BackoffTime reports cumulative modelled collision backoff.
func (e *Ethernet) BackoffTime() time.Duration { return e.backoffTime }

// Medium exposes the shared channel for utilization reporting.
func (e *Ethernet) Medium() *Link { return e.medium }

func (e *Ethernet) deliverToHost(u Unit) {
	if p, ok := e.hosts[u.DstHost]; ok {
		p.Deliver(u)
	}
}

// Path is what a host-level transport needs: somewhere to put units bound
// for another host, with the network deciding how they get there.
type Path interface {
	// Send transmits a unit toward u.DstHost and returns the local
	// transmitter-free time.
	Send(u Unit) vclock.Time
	// FreeAt returns when the local transmitter is next idle.
	FreeAt() vclock.Time
}

// hostUplink is a host's private uplink into a switch (ATM topologies).
type hostUplink struct{ link *Link }

func (h hostUplink) Send(u Unit) vclock.Time { return h.link.Send(u) }
func (h hostUplink) FreeAt() vclock.Time     { return h.link.FreeAt() }

// sharedMedium adapts Ethernet to Path.
type sharedMedium struct{ e *Ethernet }

func (s sharedMedium) Send(u Unit) vclock.Time { return s.e.Send(u) }
func (s sharedMedium) FreeAt() vclock.Time     { return s.e.medium.FreeAt() }

// Network is a wired topology: per-host transmit paths and receive ports.
type Network struct {
	eng      *sim.Engine
	paths    []Path
	fpaths   []Path // fault-checking wrappers around paths, built lazily
	receive  []Port // set by AttachHost
	kind     string
	switches []*Switch
	ether    *Ethernet
	// down maps host index to the switch downlink toward it (single-
	// switch ATM LANs); InstallChannelRoute uses it to wire a signaled
	// channel's routes.
	down []*Link

	// Fault state (crash/partition injection for the failure-domain chaos
	// suites). killed hosts blackhole all traffic in both directions; cut
	// drops directed host pairs. Enforced at the send side (faultPath,
	// where the true source is known even for cell units that leave
	// Unit.SrcHost zero) and again at delivery (hostPort, so units already
	// in flight when a host is killed are discarded on arrival).
	killed     map[int]bool
	cut        map[[2]int]bool
	faultDrops int64
}

// KillHost crashes host h: every unit to or from it is silently dropped
// until ReviveHost. Idempotent.
func (n *Network) KillHost(h int) {
	if n.killed == nil {
		n.killed = make(map[int]bool)
	}
	n.killed[h] = true
}

// ReviveHost undoes KillHost. Idempotent.
func (n *Network) ReviveHost(h int) { delete(n.killed, h) }

// Partition cuts the link between hosts a and b in both directions; traffic
// to and from every other host is unaffected. Idempotent.
func (n *Network) Partition(a, b int) {
	if n.cut == nil {
		n.cut = make(map[[2]int]bool)
	}
	n.cut[[2]int{a, b}] = true
	n.cut[[2]int{b, a}] = true
}

// Heal undoes Partition for the pair. Idempotent.
func (n *Network) Heal(a, b int) {
	delete(n.cut, [2]int{a, b})
	delete(n.cut, [2]int{b, a})
}

// ScheduleFlap schedules a link flap: the a<->b pair partitions `after`
// from now and heals `dur` later, all in virtual time.
func (n *Network) ScheduleFlap(a, b int, after, dur time.Duration) {
	n.eng.Schedule(after, func() { n.Partition(a, b) })
	n.eng.Schedule(after+dur, func() { n.Heal(a, b) })
}

// FaultDrops returns the number of units discarded by crash/partition
// injection.
func (n *Network) FaultDrops() int64 { return n.faultDrops }

// faultPath wraps a host's transmit path with the crash/partition check:
// the wrapper knows the true transmitting host, which the unit itself may
// not carry (cell-granular NICs leave SrcHost zero).
type faultPath struct {
	n     *Network
	src   int
	inner Path
}

func (fp faultPath) Send(u Unit) vclock.Time {
	n := fp.n
	if n.killed[fp.src] || n.killed[u.DstHost] || n.cut[[2]int{fp.src, u.DstHost}] {
		n.faultDrops++
		// Nothing serializes: the transmitter is free immediately.
		return fp.inner.FreeAt()
	}
	return fp.inner.Send(u)
}

func (fp faultPath) FreeAt() vclock.Time { return fp.inner.FreeAt() }

// Kind returns a label ("ethernet", "nynet-lan", "nynet-wan").
func (n *Network) Kind() string { return n.kind }

// Hosts returns the number of attached host slots.
func (n *Network) Hosts() int { return len(n.paths) }

// PathFor returns host h's transmit path (wrapped with the fault check, so
// callers may cache it: kill/partition state is read per send).
func (n *Network) PathFor(h int) Path {
	if n.fpaths == nil {
		n.fpaths = make([]Path, len(n.paths))
		for i, p := range n.paths {
			n.fpaths[i] = faultPath{n: n, src: i, inner: p}
		}
	}
	return n.fpaths[h]
}

// AttachHost sets host h's receive port. Delivery stays funneled through
// hostPort (even on the shared Ethernet) so the fault check sees every
// arriving unit.
func (n *Network) AttachHost(h int, p Port) {
	n.receive[h] = p
	if n.ether != nil {
		n.ether.Attach(h, hostPort{n, h})
	}
}

// Switches returns the topology's switches (empty for Ethernet).
func (n *Network) Switches() []*Switch { return n.switches }

// EthernetMedium returns the shared channel, or nil for switched nets.
func (n *Network) EthernetMedium() *Link {
	if n.ether == nil {
		return nil
	}
	return n.ether.Medium()
}

// hostPort forwards deliveries to whatever the host attached later.
type hostPort struct {
	net *Network
	id  int
}

func (hp hostPort) Deliver(u Unit) {
	if hp.net.killed[hp.id] {
		hp.net.faultDrops++
		return
	}
	if p := hp.net.receive[hp.id]; p != nil {
		p.Deliver(u)
	}
}

// InstallChannelRoutes provisions the full-mesh routes for channel ch's
// VPI on a single-switch ATM LAN, mirroring what NewATMLAN installs for
// the default mesh (VPI 0). Call once per explicit channel ID in use; a
// cell arriving on an unprovisioned VC is dropped by the switch, exactly
// as a real fabric discards traffic without a circuit.
func (n *Network) InstallChannelRoutes(ch uint16) {
	if n.kind != "nynet-lan" || len(n.switches) != 1 || n.down == nil {
		panic("netsim: InstallChannelRoutes requires a single-switch ATM LAN")
	}
	hosts := len(n.down)
	for s := 0; s < hosts; s++ {
		for d := s + 1; d < hosts; d++ {
			n.InstallChannelRoute(s, d, ch)
		}
	}
}

// InstallChannelRoute provisions the pair of directed routes carrying NCS
// channel ch between hosts a and b on a single-switch ATM LAN — the
// per-call analogue of InstallChannelRoutes, used by signaled channel
// setup. Idempotent.
func (n *Network) InstallChannelRoute(a, b int, ch uint16) {
	if n.kind != "nynet-lan" || len(n.switches) != 1 || n.down == nil {
		panic("netsim: InstallChannelRoute requires a single-switch ATM LAN")
	}
	if a == b {
		return
	}
	sw := n.switches[0]
	sw.Route(atm.VCForChan(a, b, ch), n.down[b])
	sw.Route(atm.VCForChan(b, a, ch), n.down[a])
}

// RemoveChannelRoute releases the pair of directed routes installed by
// InstallChannelRoute; cells still in flight on the VC are discarded by
// the switch. Idempotent.
func (n *Network) RemoveChannelRoute(a, b int, ch uint16) {
	if n.kind != "nynet-lan" || len(n.switches) != 1 || n.down == nil {
		panic("netsim: RemoveChannelRoute requires a single-switch ATM LAN")
	}
	if a == b {
		return
	}
	sw := n.switches[0]
	sw.Unroute(atm.VCForChan(a, b, ch))
	sw.Unroute(atm.VCForChan(b, a, ch))
}

// NewEthernetLAN builds the paper's comparison platform: n hosts on one
// shared 10 Mbps Ethernet.
func NewEthernetLAN(eng *sim.Engine, n int, cfg EthernetConfig) *Network {
	net := &Network{eng: eng, kind: "ethernet", receive: make([]Port, n)}
	net.ether = NewEthernet(eng, cfg)
	for h := 0; h < n; h++ {
		net.paths = append(net.paths, sharedMedium{net.ether})
		net.ether.Attach(h, hostPort{net, h})
	}
	return net
}

// ATMLANConfig parameterizes a single-switch ATM LAN (the SUN/ATM LAN of
// §2: IPXs into one FORE switch over 140 Mbps TAXI).
type ATMLANConfig struct {
	HostLinkBps   float64       // host<->switch payload rate (TAXI)
	HostLinkProp  time.Duration // host<->switch propagation
	SwitchLatency time.Duration // per-cell forwarding latency
}

// NewATMLAN builds n hosts star-wired to one switch, with full-mesh VC
// routes installed.
func NewATMLAN(eng *sim.Engine, n int, cfg ATMLANConfig) *Network {
	net := &Network{eng: eng, kind: "nynet-lan", receive: make([]Port, n)}
	sw := NewSwitch(eng, "fore0", cfg.SwitchLatency)
	net.switches = []*Switch{sw}
	// Downlinks: switch -> host.
	down := make([]*Link, n)
	for h := 0; h < n; h++ {
		down[h] = NewLink(eng, LinkConfig{
			Name:          fmt.Sprintf("down%d", h),
			BitsPerSecond: cfg.HostLinkBps,
			Propagation:   cfg.HostLinkProp,
		}, hostPort{net, h})
	}
	// Uplinks: host -> switch.
	for h := 0; h < n; h++ {
		up := NewLink(eng, LinkConfig{
			Name:          fmt.Sprintf("up%d", h),
			BitsPerSecond: cfg.HostLinkBps,
			Propagation:   cfg.HostLinkProp,
		}, sw)
		net.paths = append(net.paths, hostUplink{up})
	}
	// Full mesh of VCs.
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				sw.Route(atm.VCFor(s, d), down[d])
			}
		}
	}
	net.down = down
	return net
}

// ATMWANConfig parameterizes a two-site wide-area topology: each site is an
// ATM LAN, and the sites are joined by a trunk (e.g. DS-3 with wide-area
// propagation, the upstate-downstate NYNET path).
type ATMWANConfig struct {
	LAN       ATMLANConfig
	TrunkBps  float64
	TrunkProp time.Duration
}

// NewATMWAN builds 2*halfN hosts split across two switches joined by a
// trunk. Hosts [0,halfN) are at site A, [halfN, 2*halfN) at site B.
func NewATMWAN(eng *sim.Engine, halfN int, cfg ATMWANConfig) *Network {
	n := 2 * halfN
	net := &Network{eng: eng, kind: "nynet-wan", receive: make([]Port, n)}
	swA := NewSwitch(eng, "foreA", cfg.LAN.SwitchLatency)
	swB := NewSwitch(eng, "foreB", cfg.LAN.SwitchLatency)
	net.switches = []*Switch{swA, swB}

	site := func(h int) int {
		if h < halfN {
			return 0
		}
		return 1
	}
	sw := func(i int) *Switch {
		if i == 0 {
			return swA
		}
		return swB
	}

	down := make([]*Link, n)
	for h := 0; h < n; h++ {
		down[h] = NewLink(eng, LinkConfig{
			Name:          fmt.Sprintf("down%d", h),
			BitsPerSecond: cfg.LAN.HostLinkBps,
			Propagation:   cfg.LAN.HostLinkProp,
		}, hostPort{net, h})
		up := NewLink(eng, LinkConfig{
			Name:          fmt.Sprintf("up%d", h),
			BitsPerSecond: cfg.LAN.HostLinkBps,
			Propagation:   cfg.LAN.HostLinkProp,
		}, sw(site(h)))
		net.paths = append(net.paths, hostUplink{up})
	}
	trunkAB := NewLink(eng, LinkConfig{Name: "trunkAB", BitsPerSecond: cfg.TrunkBps, Propagation: cfg.TrunkProp}, swB)
	trunkBA := NewLink(eng, LinkConfig{Name: "trunkBA", BitsPerSecond: cfg.TrunkBps, Propagation: cfg.TrunkProp}, swA)

	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			vc := atm.VCFor(s, d)
			if site(s) == site(d) {
				sw(site(s)).Route(vc, down[d])
				continue
			}
			if site(s) == 0 {
				swA.Route(vc, trunkAB)
				swB.Route(vc, down[d])
			} else {
				swB.Route(vc, trunkBA)
				swA.Route(vc, down[d])
			}
		}
	}
	return net
}
