// Command nynet explores the simulated NYNET testbed (paper Figure 1): it
// prints the topology model and measures point-to-point latency and
// bandwidth between any two hosts with cell-level traffic, LAN or WAN.
//
// Usage:
//
//	nynet                          # describe the topologies
//	nynet -probe -from 0 -to 3     # measure a path on the LAN
//	nynet -probe -wan -from 0 -to 4 # measure across the DS-3 trunk
//	nynet -probe -bytes 1048576    # transfer size for the bandwidth probe
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/mts"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/sonet"
	"repro/internal/transport"
	"repro/internal/vclock"
)

func main() {
	probe := flag.Bool("probe", false, "run a latency/bandwidth probe")
	wan := flag.Bool("wan", false, "use the two-site WAN topology")
	from := flag.Int("from", 0, "source host")
	to := flag.Int("to", 1, "destination host")
	bytes := flag.Int("bytes", 256*1024, "probe transfer size")
	hosts := flag.Int("hosts", 6, "hosts in the fabric (WAN: split across two sites)")
	flag.Parse()

	if !*probe {
		describe()
		return
	}
	runProbe(*wan, *hosts, *from, *to, *bytes)
}

func describe() {
	fmt.Println("NYNET testbed model (paper Figure 1)")
	fmt.Println()
	fmt.Printf("  host link      : 140 Mbps TAXI  -> %6.1f Mbps ATM payload\n",
		sonet.EffectiveATMBps(sonet.TAXIRate, sonet.TAXIPayloadFraction)/1e6)
	fmt.Printf("  site trunk     : OC-3 SONET     -> %6.1f Mbps ATM payload\n",
		sonet.EffectiveATMBps(sonet.OC3Rate, sonet.SONETPayloadFraction)/1e6)
	fmt.Printf("  wide area      : OC-48 SONET    -> %6.1f Mbps ATM payload\n",
		sonet.EffectiveATMBps(sonet.OC48Rate, sonet.SONETPayloadFraction)/1e6)
	fmt.Printf("  upstate trunk  : DS-3           -> %6.1f Mbps ATM payload\n",
		sonet.EffectiveATMBps(sonet.DS3Rate, 1.0)/1e6)
	fmt.Printf("  comparison LAN : shared Ethernet-> %6.1f Mbps payload\n",
		sonet.EthernetRate*sonet.EthernetPayloadFraction/1e6)
	fmt.Println()
	fmt.Println("topologies available to -probe:")
	fmt.Println("  LAN: hosts star-wired to one FORE switch over TAXI")
	fmt.Println("  WAN: two such sites joined by the DS-3 upstate-downstate trunk (-wan)")
}

func runProbe(wan bool, hosts, from, to, nbytes int) {
	pl := bench.NYNET1995()
	eng := sim.NewEngine()
	var net *netsim.Network
	kind := "LAN"
	if wan {
		net = netsim.NewATMWAN(eng, hosts/2, netsim.ATMWANConfig{
			LAN:       pl.ATMLAN,
			TrunkBps:  sonet.EffectiveATMBps(sonet.DS3Rate, 1.0),
			TrunkProp: 4 * time.Millisecond,
		})
		kind = "WAN (two sites, DS-3 trunk, 4 ms propagation)"
		hosts = hosts / 2 * 2
	} else {
		net = netsim.NewATMLAN(eng, hosts, pl.ATMLAN)
	}
	if from < 0 || from >= hosts || to < 0 || to >= hosts || from == to {
		fmt.Fprintf(os.Stderr, "nynet: -from %d -to %d: need distinct hosts in [0,%d)\n", from, to, hosts)
		os.Exit(2)
	}

	nodes := make([]*sim.Node, hosts)
	adapters := make([]*nic.SimATM, hosts)
	for i := 0; i < hosts; i++ {
		nodes[i] = eng.NewNode(fmt.Sprintf("host%d", i))
		adapters[i] = nic.NewSimATM(nodes[i], net, i, pl.NIC)
		adapters[i].SetHandler(func(m *transport.Message) {})
	}

	// Latency probe: 1-byte message round trip.
	var t1, tN vclock.Time
	adapters[to].SetHandler(func(m *transport.Message) {
		if len(m.Data) == 1 {
			t1 = eng.Now()
			return
		}
		tN = eng.Now()
	})
	nodes[from].RT().Create("probe", mts.PrioDefault, func(th *mts.Thread) {
		adapters[from].Send(th, &transport.Message{From: transport.ProcID(from), To: transport.ProcID(to), Data: []byte{1}})
		adapters[from].Send(th, &transport.Message{From: transport.ProcID(from), To: transport.ProcID(to), Data: make([]byte, nbytes)})
	})
	eng.Run()

	xfer := time.Duration(tN - t1)
	fmt.Printf("probe host%d -> host%d on %s\n", from, to, kind)
	fmt.Printf("  one-byte latency : %v\n", time.Duration(t1))
	fmt.Printf("  %7d KB block  : %v  (%.1f Mbps effective)\n",
		nbytes/1024, xfer, float64(nbytes)*8/xfer.Seconds()/1e6)
	fmt.Printf("  cells transmitted: %d\n", adapters[from].CellsSent())
}
