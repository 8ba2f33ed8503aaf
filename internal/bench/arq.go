package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mts"
	"repro/internal/netsim"
)

// --- ARQ: go-back-N under random frame loss --------------------------------

// The error-control tier's loss sweep: one go-back-N channel streams
// arqMsgs one-way messages between two virtual-time procs whose fabric drops
// each frame — data and ack alike — with the row's probability, drawn from
// the mesh seed (netsim.FrameMeshConfig.Loss). Each row sums arqSeeds runs.

const (
	arqMsgs   = 200
	arqSize   = 16 << 10
	arqWindow = 8
)

var (
	arqTimeouts = []time.Duration{3 * time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}
	arqLosses   = []float64{0, 0.001, 0.005, 0.01, 0.02, 0.05}
	arqSeeds    = []int64{1, 2, 3}
)

// ARQRow is one (timeout, loss) cell over every seed: goodput is the bytes
// delivered over the modeled time to the last delivery, both summed across
// the runs; retransmissions are counted at the last delivery, so a sender
// retrying its final ack into a finished receiver does not count.
type ARQRow struct {
	Timeout       time.Duration
	Loss          float64
	Msgs          int // sent, over every run
	Delivered     int
	MBps          float64
	RetransPerMsg float64
	GiveUps       int
}

// ARQSweep runs every (timeout, loss) row.
func ARQSweep() []ARQRow {
	var rows []ARQRow
	for _, timeout := range arqTimeouts {
		for _, loss := range arqLosses {
			row := ARQRow{Timeout: timeout, Loss: loss}
			var took time.Duration
			var retrans int64
			for _, seed := range arqSeeds {
				delivered, last, re, giveUps := arqRun(timeout, loss, seed)
				row.Msgs += arqMsgs
				row.Delivered += delivered
				row.GiveUps += giveUps
				took += last
				retrans += re
			}
			if took > 0 {
				row.MBps = float64(row.Delivered*arqSize) / 1e6 / took.Seconds()
			}
			row.RetransPerMsg = float64(retrans) / float64(row.Msgs)
			rows = append(rows, row)
		}
	}
	return rows
}

// arqRun streams arqMsgs messages from proc 0 to proc 1 and returns how many
// arrived, the modeled time of the last arrival, the retransmissions up to
// it and the sender's give-ups.
func arqRun(timeout time.Duration, loss float64, seed int64) (delivered int, last time.Duration, retrans int64, giveUps int) {
	vm := core.NewVirtualMesh(2, seed, core.VirtualMeshConfig{
		Error:   core.NewGoBackN(arqWindow, timeout),
		Net:     netsim.FrameMeshConfig{Loss: loss},
		MaxTime: time.Minute,
	})
	tx := vm.Procs[0]
	tx.OnException(func(error) { giveUps++ })
	tx.TCreate("tx", mts.PrioDefault, func(th *core.Thread) {
		buf := make([]byte, arqSize)
		for k := 0; k < arqMsgs; k++ {
			th.Send(0, 1, buf)
		}
	})
	vm.Procs[1].TCreate("rx", mts.PrioDefault, func(th *core.Thread) {
		buf := make([]byte, arqSize)
		for ; delivered < arqMsgs; delivered++ {
			th.RecvInto(buf, core.Any, 0)
			last = vm.Now()
			retrans = tx.DefaultChannel(1).Error().(*core.GoBackN).Retransmissions()
		}
	})
	vm.Run()
	return delivered, last, retrans, giveUps
}

// RenderARQ formats the sweep.
func RenderARQ(rows []ARQRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ARQ — go-back-N(%d) under random frame loss: 2 virtual-time procs, %d x %d KB one-way per run, seeds %d-%d summed\n",
		arqWindow, arqMsgs, arqSize>>10, arqSeeds[0], arqSeeds[len(arqSeeds)-1])
	fmt.Fprintf(&b, "%-8s %7s %13s %12s %9s %10s\n", "timeout", "loss %", "goodput MB/s", "retrans/msg", "give-ups", "delivered")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8v %7.1f %13.2f %12.3f %9d %10s\n", r.Timeout, 100*r.Loss, r.MBps, r.RetransPerMsg, r.GiveUps,
			fmt.Sprintf("%d/%d", r.Delivered, r.Msgs))
	}
	return b.String()
}
