package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/apps/jpegpipe"
	"repro/internal/core"
	"repro/internal/mts"
	"repro/internal/netsim"
	"repro/internal/p4"
	"repro/internal/sim"
	"repro/internal/tcpip"
)

// The WAN experiment backs the paper's §3 motivation: "in wide area network
// based distributed computing, the propagation delay ... is several orders
// of magnitude greater than the time it takes to actually transmit the
// data", so overlapping computation with communication matters *more* as
// the trunk gets longer. The paper reports no WAN table (the testbed's
// upstate-downstate DS-3 path existed but the benchmarks ran on the LAN);
// this sweep is the natural extension experiment: matmul across two sites
// with growing trunk propagation, p4 vs NCS.

// WANRow is one trunk-propagation configuration.
type WANRow struct {
	TrunkProp   time.Duration
	P4          float64
	NCS         float64
	Improvement float64
}

// buildWAN assembles a 6-host two-site WAN (3 per site) and returns the
// engine plus the network. Host 0 is the matmul host; workers 1-2 are at
// site A with it, workers 3-5 at site B across the trunk.
func buildWAN(prop time.Duration) (*sim.Engine, *netsim.Network) {
	pl := NYNET1995()
	eng := sim.NewEngine()
	eng.SetMaxTime(24 * time.Hour)
	cfg := netsim.ATMWANConfig{
		LAN:       pl.ATMLAN,
		TrunkBps:  40.7e6, // DS-3 payload after PLCP framing
		TrunkProp: prop,
	}
	return eng, netsim.NewATMWAN(eng, 3, cfg)
}

// WANSweep runs the 4-worker JPEG pipeline across the two-site WAN for
// several trunk propagation delays: the master and compressors sit at site
// A, the decompressors at site B, so every compressed piece and every
// reconstructed piece crosses the trunk. A one-shot distribution (matmul)
// has no round trips to hide; the pipeline does.
func WANSweep() []WANRow {
	pl := NYNET1995()
	const workers = 4
	cfg := jpegCfg(pl, workers)

	runP4 := func(prop time.Duration) float64 {
		eng, net := buildWAN(prop)
		procs := make([]*p4.Process, workers+1)
		for i := 0; i <= workers; i++ {
			node := eng.NewNode(fmt.Sprintf("node%d", i))
			ep := tcpip.NewSimTCP(node, net, i, pl.TCP)
			cost := pl.TCP
			quantum := pl.PollQuantum
			procs[i] = p4.New(p4.Config{
				ID: p4.ProcID(i), RT: node.RT(), Endpoint: ep,
				RecvCharge: func(t *mts.Thread, sz int) {
					node.Compute(t, cost.RecvCost(sz))
				},
				BlockedRecvPenalty: func(t *mts.Thread) {
					node.Compute(t, quantum/2)
				},
			})
		}
		res := jpegpipe.BuildP4(procs, cfg)
		eng.Run()
		return res.Elapsed.Seconds()
	}

	runNCS := func(prop time.Duration) float64 {
		eng, net := buildWAN(prop)
		procs := make([]*core.Proc, workers+1)
		for i := 0; i <= workers; i++ {
			node := eng.NewNode(fmt.Sprintf("node%d", i))
			ep := tcpip.NewSimTCP(node, net, i, pl.TCP)
			cost := pl.TCP
			quantum := pl.PollQuantum
			procs[i] = core.New(core.Config{
				ID: core.ProcID(i), RT: node.RT(), Endpoint: ep,
				RecvCharge: func(t *mts.Thread, sz int) {
					node.Compute(t, cost.RecvCost(sz))
				},
				ArrivalPollDelay: func() time.Duration {
					if node.CPUActive() {
						return 0
					}
					return quantum / 2
				},
			})
		}
		res := jpegpipe.BuildNCS(procs, cfg)
		eng.Run()
		return res.Elapsed.Seconds()
	}

	var rows []WANRow
	for _, prop := range []time.Duration{0, 2 * time.Millisecond, 8 * time.Millisecond, 15 * time.Millisecond} {
		p4s := runP4(prop)
		ncss := runNCS(prop)
		rows = append(rows, WANRow{TrunkProp: prop, P4: p4s, NCS: ncss, Improvement: improvement(p4s, ncss)})
	}
	return rows
}

// RenderWAN formats the sweep.
func RenderWAN(rows []WANRow) string {
	var b strings.Builder
	b.WriteString("WAN extension — JPEG pipeline across two sites over a DS-3 trunk, 4 workers\n")
	fmt.Fprintf(&b, "%-12s %10s %10s %8s\n", "trunk prop", "p4 (s)", "NCS (s)", "impr%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %10.2f %10.2f %7.1f%%\n", r.TrunkProp, r.P4, r.NCS, r.Improvement)
	}
	return b.String()
}
