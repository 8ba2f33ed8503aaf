// Package bench is the experiment harness: it models the paper's two
// evaluation platforms (§2), assembles simulated clusters of p4 and NCS
// processes on them, and regenerates every table and figure of the
// evaluation section, plus the repo's own modeled sweeps on the virtual-time
// mesh (collectives, scale, churn, faults). Every experiment is a result
// struct and a Render function; `ncsbench -h` is the index, and
// TestGoldenModeledOutput holds each rendered output byte for byte.
package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mts"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/p4"
	"repro/internal/sim"
	"repro/internal/sonet"
	"repro/internal/tcpip"
	"repro/internal/trace"
)

// Platform models one of the paper's testbeds: the workstation class, the
// network fabric, and the protocol-stack costs.
type Platform struct {
	// Name labels output rows ("Ethernet", "NYNET").
	Name string
	// ATM selects the switched ATM fabric (vs shared Ethernet).
	ATM bool
	// TCP is the socket/TCP/IP cost model for this workstation class.
	TCP tcpip.CostModel
	// PollQuantum is p4's receive-poll discovery latency (charged once
	// per blocking receive).
	PollQuantum time.Duration
	// Ethernet fabric parameters.
	Ether netsim.EthernetConfig
	// ATM fabric parameters.
	ATMLAN netsim.ATMLANConfig
	// NIC parameterizes the SBA-200 model for the HSM (Approach 2) path.
	NIC nic.Config
}

// Ethernet1995 is the SUN/Ethernet configuration of §2: SPARCstation ELCs
// (33 MHz) on shared 10 Mbps Ethernet, p4 over TCP/IP.
//
// Calibration notes: the per-byte protocol cost reflects the 5-access
// datapath of Figure 3a plus p4's XDR data conversion on a 33 MHz CPU; the
// poll quantum reflects p4's select/backoff receive loop. Per-op compute
// costs are calibrated per experiment from the paper's 1-node columns
// (the constants in tables.go).
func Ethernet1995() Platform {
	return Platform{
		Name: "Ethernet",
		ATM:  false,
		TCP: tcpip.CostModel{
			PerMessage:    1500 * time.Microsecond,
			PerByteSend:   1200 * time.Nanosecond,
			PerByteRecv:   1200 * time.Nanosecond,
			MTU:           1460,
			FrameOverhead: 58,
		},
		PollQuantum: 60 * time.Millisecond,
		Ether: netsim.EthernetConfig{
			BitsPerSecond: sonet.EthernetRate * sonet.EthernetPayloadFraction,
			Propagation:   50 * time.Microsecond,
			PerFrame:      100 * time.Microsecond, // preamble, gap, CSMA deference
		},
	}
}

// NYNET1995 is the SUN/ATM LAN configuration of §2: SPARCstation IPXs
// (40 MHz) on a FORE ASX switch over 140 Mbps TAXI, p4 over TCP/IP over
// Classical-IP-over-ATM (MTU 9180).
func NYNET1995() Platform {
	return Platform{
		Name: "NYNET",
		ATM:  true,
		TCP: tcpip.CostModel{
			PerMessage:    1200 * time.Microsecond,
			PerByteSend:   1000 * time.Nanosecond,
			PerByteRecv:   1000 * time.Nanosecond,
			MTU:           9180,
			FrameOverhead: 48,
		},
		PollQuantum: 50 * time.Millisecond,
		ATMLAN: netsim.ATMLANConfig{
			HostLinkBps:   sonet.EffectiveATMBps(sonet.TAXIRate, sonet.TAXIPayloadFraction),
			HostLinkProp:  10 * time.Microsecond,
			SwitchLatency: 10 * time.Microsecond,
		},
		NIC: nic.Config{
			NumBuffers:      4,
			BufferSize:      16 * 1024,
			TrapCost:        40 * time.Microsecond,
			HostCopyPerByte: 600 * time.Nanosecond, // 3-access path, Figure 3b
		},
	}
}

// NYNETWAN1995 extends NYNET1995 with the wide-area topology of Figure 1:
// two sites joined by the DS-3 upstate-downstate trunk.
type WANPlatform struct {
	Platform
	Trunk netsim.ATMWANConfig
}

// NYNETWAN returns the two-site wide-area configuration.
func NYNETWAN() WANPlatform {
	p := NYNET1995()
	p.Name = "NYNET-WAN"
	return WANPlatform{
		Platform: p,
		Trunk: netsim.ATMWANConfig{
			LAN:       p.ATMLAN,
			TrunkBps:  sonet.EffectiveATMBps(sonet.DS3Rate, 1.0),
			TrunkProp: 4 * time.Millisecond, // upstate <-> downstate fiber
		},
	}
}

// BuildNet constructs the platform's fabric for n hosts.
func (pl Platform) BuildNet(eng *sim.Engine, n int) *netsim.Network {
	if pl.ATM {
		return netsim.NewATMLAN(eng, n, pl.ATMLAN)
	}
	return netsim.NewEthernetLAN(eng, n, pl.Ether)
}

// Cluster is an assembled simulation: engine, fabric, nodes.
type Cluster struct {
	Eng   *sim.Engine
	Net   *netsim.Network
	Nodes []*sim.Node
	// Tracer records timelines when attached via WithTrace.
	Tracer *trace.Recorder
}

// newCluster builds the common substrate.
func newCluster(pl Platform, n int, traced bool) *Cluster {
	eng := sim.NewEngine()
	eng.SetMaxTime(24 * time.Hour)
	c := &Cluster{Eng: eng, Net: pl.BuildNet(eng, n)}
	for i := 0; i < n; i++ {
		c.Nodes = append(c.Nodes, eng.NewNode(fmt.Sprintf("node%d", i)))
	}
	if traced {
		c.Tracer = trace.NewRecorder(eng.Clock())
	}
	return c
}

// NewP4Cluster assembles n p4 processes (proc i on host i) over the
// platform's TCP path.
func NewP4Cluster(pl Platform, n int, traced bool) (*Cluster, []*p4.Process) {
	c := newCluster(pl, n, traced)
	procs := make([]*p4.Process, n)
	for i := 0; i < n; i++ {
		node := c.Nodes[i]
		ep := tcpip.NewSimTCP(node, c.Net, i, pl.TCP)
		cost := pl.TCP
		quantum := pl.PollQuantum
		cfg := p4.Config{
			ID:       p4.ProcID(i),
			RT:       node.RT(),
			Endpoint: ep,
			RecvCharge: func(t *mts.Thread, sz int) {
				node.Compute(t, cost.RecvCost(sz))
			},
		}
		if quantum > 0 {
			cfg.BlockedRecvPenalty = func(t *mts.Thread) {
				node.Compute(t, quantum/2) // expected poll discovery delay
			}
		}
		if c.Tracer != nil {
			cfg.Tracer = c.Tracer
			cfg.TraceName = fmt.Sprintf("proc%d", i)
		}
		procs[i] = p4.New(cfg)
	}
	return c, procs
}

// NewNCSCluster assembles n NCS processes over the platform. hsm selects
// Approach 2 (the ATM-API endpoint with the SBA-200 model and the 3-access
// host path) instead of Approach 1 (NCS over the TCP path, what the paper
// benchmarks).
func NewNCSCluster(pl Platform, n int, hsm bool, traced bool) (*Cluster, []*core.Proc) {
	c := newCluster(pl, n, traced)
	procs := make([]*core.Proc, n)
	for i := 0; i < n; i++ {
		node := c.Nodes[i]
		cfg := core.Config{
			ID: core.ProcID(i),
			RT: node.RT(),
		}
		if hsm {
			if !pl.ATM {
				panic("bench: HSM requires an ATM platform")
			}
			ep := nic.NewSimATM(node, c.Net, i, pl.NIC)
			cfg.Endpoint = ep
			cfg.RecvCharge = func(t *mts.Thread, sz int) {
				node.Compute(t, ep.RecvCost(sz))
			}
		} else {
			ep := tcpip.NewSimTCP(node, c.Net, i, pl.TCP)
			cost := pl.TCP
			cfg.Endpoint = ep
			cfg.RecvCharge = func(t *mts.Thread, sz int) {
				node.Compute(t, cost.RecvCost(sz))
			}
			// Approach 1 polls p4 underneath: an arrival on an idle
			// workstation waits for poll discovery, exactly like the p4
			// baseline; an arrival during computation is free.
			if q := pl.PollQuantum; q > 0 {
				cfg.ArrivalPollDelay = func() time.Duration {
					if node.CPUActive() {
						return 0
					}
					return q / 2
				}
			}
		}
		if c.Tracer != nil {
			cfg.Tracer = c.Tracer
			cfg.TraceName = fmt.Sprintf("proc%d", i)
		}
		procs[i] = core.New(cfg)
	}
	return c, procs
}
