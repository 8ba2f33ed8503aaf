package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/apps/matmul"
)

// Ablations probe the design space around the calibrated configuration.
// They exist to make one analysis concrete: the paper's
// Table 1 multithreading gains require a much larger communication share
// than any consistent 1995 TCP/Ethernet cost model produces for 128×128
// matrices, and the model's NCS advantage indeed grows with communication
// share — the mechanism is present, the workload as published just doesn't
// exercise it.

// AblationRow is one configuration of an ablation sweep.
type AblationRow struct {
	Label       string
	P4          float64
	NCS         float64
	Improvement float64
}

// scaleComm returns the platform with communication made k× more expensive
// (per-byte protocol cost up, wire rate down).
func scaleComm(pl Platform, k float64) Platform {
	pl.TCP.PerByteSend = time.Duration(float64(pl.TCP.PerByteSend) * k)
	pl.TCP.PerByteRecv = time.Duration(float64(pl.TCP.PerByteRecv) * k)
	pl.Ether.BitsPerSecond /= k
	pl.ATMLAN.HostLinkBps /= k
	return pl
}

// AblationCommScale sweeps the communication-cost multiplier for 4-node
// matmul: at 1× (the calibrated point) threading hides almost nothing
// because compute dominates 12:1; as communication grows, the Figure 4
// overlap surfaces.
func AblationCommScale(scales []float64) []AblationRow {
	var rows []AblationRow
	for _, k := range scales {
		pl := scaleComm(Ethernet1995(), k)
		p4s := MatmulP4(pl, 4)
		ncss := MatmulNCS(pl, 4)
		rows = append(rows, AblationRow{
			Label:       fmt.Sprintf("comm x%.0f", k),
			P4:          p4s,
			NCS:         ncss,
			Improvement: improvement(p4s, ncss),
		})
	}
	return rows
}

// AblationThreads sweeps threads-per-process for the NCS matmul (the paper
// fixes 2): more threads mean finer row blocks, earlier first compute, and
// more scheduler upkeep.
func AblationThreads(counts []int) []AblationRow {
	pl := scaleComm(NYNET1995(), 4) // a comm share where threading matters
	p4s := MatmulP4(pl, 4)
	var rows []AblationRow
	for _, threads := range counts {
		cfg := matmul.Config{Dim: MatmulDim, Workers: 4, OpCost: matmulOpNYNET, Seed: 1}
		c, procs := NewNCSCluster(pl, 5, false, false)
		res := matmul.BuildNCS(procs, cfg, threads)
		c.Eng.Run()
		ncss := res.Elapsed.Seconds()
		rows = append(rows, AblationRow{
			Label:       fmt.Sprintf("%d threads/proc", threads),
			P4:          p4s,
			NCS:         ncss,
			Improvement: improvement(p4s, ncss),
		})
	}
	return rows
}

// AblationPollQuantum sweeps p4's receive-poll quantum for 4-node FFT: the
// quantum is the main structural p4-vs-NCS difference the FFT exposes
// (lockstep exchanges leave little compute to hide transfers behind).
func AblationPollQuantum(quanta []time.Duration) []AblationRow {
	var rows []AblationRow
	for _, q := range quanta {
		pl := NYNET1995()
		pl.PollQuantum = q
		p4s := FFTP4(pl, 4)
		ncss := FFTNCS(pl, 4)
		rows = append(rows, AblationRow{
			Label:       fmt.Sprintf("quantum %v", q),
			P4:          p4s,
			NCS:         ncss,
			Improvement: improvement(p4s, ncss),
		})
	}
	return rows
}

// AblationBuffers sweeps the SBA-200 buffer count for the HSM matmul,
// isolating the Figure 2 mechanism inside a full application.
func AblationBuffers(counts []int) []AblationRow {
	var rows []AblationRow
	for _, k := range counts {
		pl := NYNET1995()
		pl.NIC.NumBuffers = k
		c, procs := NewNCSCluster(pl, 5, true, false)
		res := matmul.BuildNCS(procs, matmul.Config{Dim: MatmulDim, Workers: 4, OpCost: matmulOpNYNET, Seed: 1}, 2)
		c.Eng.Run()
		rows = append(rows, AblationRow{
			Label: fmt.Sprintf("%d NIC buffers", k),
			NCS:   res.Elapsed.Seconds(),
		})
	}
	// Improvements relative to the 1-buffer row.
	base := rows[0].NCS
	for i := range rows {
		rows[i].P4 = base
		rows[i].Improvement = improvement(base, rows[i].NCS)
	}
	return rows
}

// AblationContention sweeps the Ethernet CSMA/CD backoff slot for the
// 8-node p4 JPEG pipeline — the probe for Table 2's anomalous p4 growth
// with node count: contention bends p4 upward in the
// right direction but falls far short of the paper's measured 17 s.
func AblationContention(slots []time.Duration) []AblationRow {
	var rows []AblationRow
	for _, slot := range slots {
		pl := Ethernet1995()
		pl.Ether.ContentionSlot = slot
		p4s := JPEGP4(pl, 8)
		ncss := JPEGNCS(pl, 8)
		rows = append(rows, AblationRow{
			Label:       fmt.Sprintf("slot %v", slot),
			P4:          p4s,
			NCS:         ncss,
			Improvement: improvement(p4s, ncss),
		})
	}
	return rows
}

// RenderAblation formats a sweep.
func RenderAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-18s %10s %10s %8s\n", "config", "p4/base(s)", "NCS (s)", "impr%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %10.2f %10.2f %7.1f%%\n", r.Label, r.P4, r.NCS, r.Improvement)
	}
	return b.String()
}

// RenderAblations runs and formats all five sweeps.
func RenderAblations() string {
	// Real Ethernet's slot time is 51.2 µs; a few slots per backoff is the
	// physical regime.
	return RenderAblation("Ablation — matmul(4 nodes) vs communication share (Ethernet)",
		AblationCommScale([]float64{1, 2, 5, 10})) + "\n" +
		RenderAblation("Ablation — matmul(4 nodes) vs threads/process (NYNET, comm x4)",
			AblationThreads([]int{1, 2, 4})) + "\n" +
		RenderAblation("Ablation — FFT(4 nodes) vs p4 poll quantum (NYNET)",
			AblationPollQuantum([]time.Duration{0, 25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond})) + "\n" +
		RenderAblation("Ablation — HSM matmul(4 nodes) vs SBA-200 buffer count",
			AblationBuffers([]int{1, 2, 4, 8})) + "\n" +
		RenderAblation("Ablation — JPEG(8 nodes) vs Ethernet contention slot",
			AblationContention([]time.Duration{0, 51200 * time.Nanosecond, 256 * time.Microsecond, time.Millisecond}))
}
