// Distributed decimation-in-frequency FFT, the paper's Table 3 workload
// (Figures 19-21), for real: a host distributes sample sets to worker
// processes (two threads each; the final butterfly exchange between a
// node's threads goes through shared memory), and every spectrum is
// verified against the direct O(M²) DFT.
//
// Alongside the FFT, every process runs a phase-synchronization thread in
// a collective Group pinned to a high-priority channel: the dissemination
// barrier rides its own high-priority class while the FFT's bulk block exchange
// uses the default channels. Each process traces its collective lane
// (round-index marks included), and the run ends by printing the
// per-phase barrier-exit skew (max minus min across processes) computed
// from those lanes.
//
//	go run ./examples/fft [-m 512] [-sets 4] [-workers 4] [-phases 6]
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/apps/fft"
	"repro/internal/core"
	"repro/internal/mts"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// spin burns roughly d of CPU in-thread: cooperative compute the barrier
// then has to absorb, so phases exhibit real skew.
func spin(d time.Duration) {
	deadline := time.Now().Add(d)
	x := 1
	for time.Now().Before(deadline) {
		x = x*31 + 7
	}
	_ = x
}

func main() {
	m := flag.Int("m", 512, "sample points per set (power of two)")
	sets := flag.Int("sets", 4, "independent sample sets")
	workers := flag.Int("workers", 4, "worker processes (2 threads each)")
	phases := flag.Int("phases", 6, "collective synchronization phases")
	flag.Parse()

	// One wall clock shared by every runtime, so the per-process trace
	// lanes are comparable and cross-process phase skew is measurable.
	clock := vclock.NewRealClock()
	const collChan core.ChannelID = 9

	mem := transport.NewMem()
	nProcs := *workers + 1
	procs := make([]*core.Proc, nProcs)
	recorders := make([]*trace.Recorder, nProcs)
	for i := range procs {
		rt := mts.New(mts.Config{Name: fmt.Sprintf("proc%d", i), IdleTimeout: 60 * time.Second, Clock: clock})
		recorders[i] = trace.NewRecorder(clock)
		procs[i] = core.New(core.Config{
			ID:        core.ProcID(i),
			RT:        rt,
			Endpoint:  mem.Attach(transport.ProcID(i), rt),
			Tracer:    recorders[i],
			TraceName: fmt.Sprintf("p%d", i),
		})
	}
	// The collective class: high priority, its own channel toward every
	// peer, so barrier tokens overtake bulk FFT blocks in the send queues.
	for i := range procs {
		for j := range procs {
			if i != j {
				procs[i].Open(core.ProcID(j), core.ChannelConfig{ID: collChan, Priority: 7})
			}
		}
	}

	cfg := fft.Config{M: *m, Sets: *sets, Workers: *workers, Seed: 7}
	res := fft.BuildNCS(procs, cfg)

	// Phase-synchronization threads: one per process, all members of one
	// Group on the pinned channel. Staggered spin models uneven phase work.
	members := make([]core.Addr, nProcs)
	sync := make([]*core.Thread, nProcs)
	for i := range procs {
		i := i
		sync[i] = procs[i].TCreate("sync", mts.PrioDefault, func(t *core.Thread) {
			g := procs[i].NewGroup(members, core.GroupConfig{Channel: collChan})
			for ph := 0; ph < *phases; ph++ {
				t.Compute(0, func() { spin(time.Duration(1+(i+ph)%3) * time.Millisecond) })
				g.Barrier(t)
			}
		})
	}
	for i := range members {
		members[i] = core.Addr{Proc: core.ProcID(i), Thread: sync[i].Idx()}
	}

	start := time.Now()
	done := make(chan struct{}, len(procs))
	for _, p := range procs {
		p := p
		go func() {
			p.Start()
			done <- struct{}{}
		}()
	}
	for range procs {
		<-done
	}
	wall := time.Since(start)

	worst := 0.0
	for s, spectrum := range res.Spectra {
		want := fft.DFT(fft.RandomSignal(*m, 7+int64(s)))
		if d := fft.MaxAbsDiff(spectrum, want); d > worst {
			worst = d
		}
	}
	fmt.Printf("FFT: M=%d, %d sets, host + %d workers (2 threads each): wall %v\n",
		*m, *sets, *workers, wall.Round(time.Millisecond))
	fmt.Printf("  max |FFT - DFT| across all sets: %.2e\n", worst)
	if worst > 1e-6 {
		panic("distributed FFT diverged from the DFT oracle")
	}
	fmt.Println("verified: all spectra match the direct DFT")

	// Phase skew, straight from the per-channel trace lanes: each process's
	// collective lane has one Comm segment per barrier; the spread of the
	// segment ends is how long the fastest process idled at that phase.
	rows := make([]*trace.Timeline, nProcs)
	for i, r := range recorders {
		r.CloseAll()
		rows[i] = r.Timeline(fmt.Sprintf("p%d/coll g0 ch%d", i, collChan))
		if rows[i] == nil {
			panic("collective lane missing from trace")
		}
	}
	skews := trace.PhaseSkew(rows, trace.Comm)
	fmt.Printf("collective phases on channel %d (priority 7), barrier-exit skew (max-min):\n", collChan)
	var worstSkew time.Duration
	for ph, s := range skews {
		if s > worstSkew {
			worstSkew = s
		}
		fmt.Printf("  phase %d: %8v\n", ph, s.Round(time.Microsecond))
	}
	fmt.Printf("  worst phase skew: %v over %d phases (%d round marks on p0's lane)\n",
		worstSkew.Round(time.Microsecond), len(skews), len(rows[0].Marks))
}
