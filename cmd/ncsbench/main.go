// Command ncsbench regenerates the paper's evaluation — Tables 1-3 and the
// reproducible figures, printed side by side with the published numbers —
// and the repo's own modeled experiments. Everything it prints except
// fig3's ns/KB column, micro and mesh is a pure function of the code, held
// byte for byte by internal/bench's TestGoldenModeledOutput.
//
// Usage:
//
//	ncsbench -experiment all          # everything (default)
//	ncsbench -experiment table1       # one experiment; -h lists them all
//	ncsbench -experiment mesh -weights 6,1
//	ncsbench -experiment scale1k -n 1024 -seed 7
//
// A failed experiment (bad -n or -weights, a diverged determinism rerun)
// prints to stderr and exits 1; an unknown experiment or flag exits 2.
//
// All table/figure numbers are produced by the virtual-time discrete-event
// simulation; absolute seconds are calibrated to the paper's 1-node
// columns, every other cell is model output.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ncsbench:", err)
		os.Exit(1)
	}
}

func run() error {
	mutexProfile := flag.String("mutexprofile", "", "write a mutex-contention profile to this file (lane mu hot spots)")
	blockProfile := flag.String("blockprofile", "", "write a blocking profile to this file (ring sleeps, scheduler waits)")
	weights := flag.String("weights", "", "mesh: comma-separated DRR weights assigned round-robin to the channels (default priority+1)")
	meshN := flag.Int("n", 1024, "scale1k: number of procs on the virtual-time event loop")
	seed := flag.Int64("seed", 7, "scale1k: workload seed (same -n and -seed reproduce every timeline hash byte for byte)")

	// The one list of experiments: "all" runs it in order, and the flag's
	// help text is built from it.
	text := func(f func() string) func() error { return func() error { fmt.Print(f()); return nil } }
	experiments := []struct {
		name, doc string
		run       func() error
	}{
		{"table1", "matrix multiplication", text(bench.RenderTable1)},
		{"table2", "JPEG pipeline", text(bench.RenderTable2)},
		{"table3", "FFT", text(bench.RenderTable3)},
		{"fig2", "multiple I/O buffers", text(func() string { return bench.RenderFig2(bench.Figure2(256<<10, []int{1, 2, 4, 8}), 256<<10) })},
		{"fig3", "datapath bus accesses", text(func() string { return bench.RenderFig3(bench.Figure3(64<<10, 200), 64<<10) })},
		{"fig4", "matmul overlap timeline", text(bench.Figure4)},
		{"fig16", "JPEG processor-state timeline", text(bench.Figure16)},
		{"atmapi", "E8: Approach 2 (HSM) vs Approach 1", text(func() string { return bench.RenderE8(bench.E8ApproachTwo()) })},
		{"wan", "extra: NYNET WAN (DS-3 trunk) sweep", text(func() string { return bench.RenderWAN(bench.WANSweep()) })},
		{"ablation", "one model input varied at a time", text(bench.RenderAblations)},
		{"micro", "one-way latency and bandwidth by tier and size", text(func() string {
			return bench.RenderMicro(bench.MicroSweep([]int{64, 1024, 8192, 65536, 262144}))
		})},
		{"collectives", "tree vs linear group ops, modeled, N = 4, 8, 16", text(func() string { return bench.RenderCollectives(bench.Collectives()) })},
		{"churn", "256 procs, 1,024 signaled calls under admission overload", text(func() string { return bench.RenderChurn(bench.Churn()) })},
		{"faults", "64 procs, one host killed: detection latency, teardown", text(func() string { return bench.RenderFaults(bench.Faults()) })},
		{"mesh", "live channel pair (-weights)", func() error { return mesh(*weights) }},
		{"scale1k", "virtual-time scale sweep (-n, -seed)", func() error { return scale1k(*meshN, *seed) }},
	}
	help := "which experiment to run: all, or one of"
	for _, e := range experiments {
		help += fmt.Sprintf("\n%-12s %s", e.name, e.doc)
	}
	experiment := flag.String("experiment", "all", help)
	flag.Parse()

	// Contention profiling for the sharded hot path: the lane engines
	// synchronize on per-lane mutexes and MPSC ring wakeups, so when a
	// lane count or GOMAXPROCS change shifts throughput, these two
	// profiles say whether lock contention or blocking hand-offs moved.
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(5)
		defer writeProfile("mutex", *mutexProfile)
	}
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(int(100 * time.Microsecond))
		defer writeProfile("block", *blockProfile)
	}

	var names []string
	for _, e := range experiments {
		names = append(names, e.name)
		if *experiment == "all" {
			if err := e.run(); err != nil {
				return err
			}
			fmt.Println()
		} else if *experiment == e.name {
			return e.run()
		}
	}
	if *experiment != "all" {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; choose one of: all %s\n", *experiment, strings.Join(names, " "))
		os.Exit(2)
	}
	return nil
}

// writeProfile dumps one named pprof profile, complaining to stderr rather
// than failing the run — the experiment output already printed.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ncsbench: %s profile: %v\n", name, err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "ncsbench: %s profile: %v\n", name, err)
	}
}
