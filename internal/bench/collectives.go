package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mts"
	"repro/internal/tcpip"
)

// The collectives experiment holds the logarithmic group operations'
// algorithmic claim: barrier, broadcast and all-to-all at N ∈ {4, 8, 16},
// each in tree form (binomial, Fanout 0) and linear form (Fanout >= N: the
// flat star under member 0 and the root-collected barrier, on the same
// fan-out plumbing; all-to-all has one body for both, so its two columns
// agree), over simulated TCP on the calibrated
// NYNET ATM LAN. Every workstation's link and CPU is modeled independently,
// so the tree's parallel hops count; how fast the same operations run on
// this host's cores is bench/'s coll_mem_n8 workload, not this table.

const (
	collectiveIters = 10
	collectiveBcast = 64 << 10
	collectiveA2A   = 8 << 10
)

// CollectiveRow is one (operation, N) pair in modeled µs per operation.
type CollectiveRow struct {
	Op       string
	N        int
	TreeUs   float64
	LinearUs float64
}

// Speedup is the tree's modeled advantage over the linear form.
func (r CollectiveRow) Speedup() float64 { return r.LinearUs / r.TreeUs }

// collectiveUs runs collectiveIters operations across n NCS processes on a
// pinned priority channel and returns virtual µs per operation.
func collectiveUs(op string, n, fanout, payload int) float64 {
	pl := NYNET1995()
	c := newCluster(pl, n, false)
	procs := make([]*core.Proc, n)
	for i, node := range c.Nodes {
		procs[i] = core.New(core.Config{
			ID: core.ProcID(i), RT: node.RT(),
			Endpoint: tcpip.NewSimTCP(node, c.Net, i, pl.TCP),
		})
	}
	members := groupMembers(n)
	for i, p := range procs {
		for j := range procs {
			if i != j {
				p.Open(core.ProcID(j), core.ChannelConfig{ID: 1, Priority: 6})
			}
		}
		p.TCreate("m", mts.PrioDefault, collectiveBody(p, members, core.GroupConfig{Channel: 1, Fanout: fanout}, op, collectiveIters, payload))
	}
	c.Eng.Run()
	return float64(time.Duration(c.Eng.Now()).Microseconds()) / collectiveIters
}

// groupMembers is thread 0 of each of n procs.
func groupMembers(n int) []core.Addr {
	members := make([]core.Addr, n)
	for i := range members {
		members[i] = core.Addr{Proc: core.ProcID(i), Thread: 0}
	}
	return members
}

// collectiveBody is the thread every member runs: iters operations of op
// on a group over members.
func collectiveBody(p *core.Proc, members []core.Addr, cfg core.GroupConfig, op string, iters, payload int) func(*core.Thread) {
	return func(t *core.Thread) {
		g := p.NewGroup(members, cfg)
		buf := make([]byte, payload)
		var data [][]byte
		if op == "alltoall" {
			data = make([][]byte, len(members))
			for j := range data {
				data[j] = make([]byte, payload)
			}
		}
		for k := 0; k < iters; k++ {
			switch op {
			case "barrier":
				g.Barrier(t)
			case "bcast":
				g.BcastInto(t, 0, buf)
			case "alltoall":
				g.AllToAll(t, data)
			}
		}
	}
}

// linearFanout is a GroupConfig.Fanout no group here reaches: every member
// is the root's direct child.
const linearFanout = 1 << 20

// Collectives runs the sweep.
func Collectives() []CollectiveRow {
	var rows []CollectiveRow
	for _, n := range []int{4, 8, 16} {
		for _, c := range []struct {
			op      string
			payload int
		}{{"barrier", 0}, {"bcast", collectiveBcast}, {"alltoall", collectiveA2A}} {
			rows = append(rows, CollectiveRow{Op: c.op, N: n,
				TreeUs:   collectiveUs(c.op, n, 0, c.payload),
				LinearUs: collectiveUs(c.op, n, linearFanout, c.payload)})
		}
	}
	return rows
}

// RenderCollectives formats the sweep.
func RenderCollectives(rows []CollectiveRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Collectives — tree vs linear, modeled us/op over SimTCP on the NYNET LAN (%d ops; bcast %d KB, alltoall %d KB per pair)\n",
		collectiveIters, collectiveBcast>>10, collectiveA2A>>10)
	fmt.Fprintf(&b, "%-10s %4s %12s %12s %9s\n", "op", "N", "tree", "linear", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %4d %12.1f %12.1f %8.3fx\n", r.Op, r.N, r.TreeUs, r.LinearUs, r.Speedup())
	}
	return b.String()
}
