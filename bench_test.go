package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/apps/fft"
	"repro/internal/apps/jpegcodec"
	"repro/internal/atm"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/hostif"
	"repro/internal/mts"
	"repro/internal/transport"
)

// Table and figure benchmarks. Each regenerates one artifact of the
// paper's evaluation section; the modeled 1995 execution time is reported
// as the custom metric "modeled_s" (ns/op measures only how fast the
// simulation itself runs on this machine).

func benchTableCell(b *testing.B, run func() float64) {
	b.Helper()
	var modeled float64
	for i := 0; i < b.N; i++ {
		modeled = run()
	}
	b.ReportMetric(modeled, "modeled_s")
}

// BenchmarkTable1 regenerates Table 1 (matrix multiplication).
func BenchmarkTable1(b *testing.B) {
	for _, pl := range []bench.Platform{bench.Ethernet1995(), bench.NYNET1995()} {
		for _, n := range []int{1, 2, 4, 8} {
			if pl.ATM && n == 8 {
				continue // the paper reports no 8-node NYNET rows
			}
			pl, n := pl, n
			b.Run(fmt.Sprintf("%s/p4/nodes=%d", pl.Name, n), func(b *testing.B) {
				benchTableCell(b, func() float64 { return bench.MatmulP4(pl, n) })
			})
			b.Run(fmt.Sprintf("%s/ncs/nodes=%d", pl.Name, n), func(b *testing.B) {
				benchTableCell(b, func() float64 { return bench.MatmulNCS(pl, n) })
			})
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (JPEG pipeline).
func BenchmarkTable2(b *testing.B) {
	for _, pl := range []bench.Platform{bench.Ethernet1995(), bench.NYNET1995()} {
		for _, n := range []int{2, 4, 8} {
			if pl.ATM && n == 8 {
				continue
			}
			pl, n := pl, n
			b.Run(fmt.Sprintf("%s/p4/nodes=%d", pl.Name, n), func(b *testing.B) {
				benchTableCell(b, func() float64 { return bench.JPEGP4(pl, n) })
			})
			b.Run(fmt.Sprintf("%s/ncs/nodes=%d", pl.Name, n), func(b *testing.B) {
				benchTableCell(b, func() float64 { return bench.JPEGNCS(pl, n) })
			})
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (DIF FFT).
func BenchmarkTable3(b *testing.B) {
	for _, pl := range []bench.Platform{bench.Ethernet1995(), bench.NYNET1995()} {
		for _, n := range []int{1, 2, 4, 8} {
			if pl.ATM && n == 8 {
				continue
			}
			pl, n := pl, n
			b.Run(fmt.Sprintf("%s/p4/nodes=%d", pl.Name, n), func(b *testing.B) {
				benchTableCell(b, func() float64 { return bench.FFTP4(pl, n) })
			})
			b.Run(fmt.Sprintf("%s/ncs/nodes=%d", pl.Name, n), func(b *testing.B) {
				benchTableCell(b, func() float64 { return bench.FFTNCS(pl, n) })
			})
		}
	}
}

// BenchmarkFig2Buffers regenerates Figure 2 (parallel data transfer via
// multiple I/O buffers): modeled delivery time per buffer count.
func BenchmarkFig2Buffers(b *testing.B) {
	const size = 256 * 1024
	for _, k := range []int{1, 2, 4, 8} {
		k := k
		b.Run(fmt.Sprintf("buffers=%d", k), func(b *testing.B) {
			var rows []bench.Fig2Row
			for i := 0; i < b.N; i++ {
				rows = bench.Figure2(size, []int{k})
			}
			b.ReportMetric(rows[0].Seconds*1e3, "modeled_ms")
		})
	}
}

// BenchmarkFig3Datapath regenerates Figure 3 with real memory traffic:
// ns/op here IS the result (measured copy+checksum cost on this machine),
// alongside the counted bus accesses per word.
func BenchmarkFig3Datapath(b *testing.B) {
	const size = 64 * 1024
	app := make([]byte, size)
	for i := range app {
		app[i] = byte(i)
	}
	for _, mk := range []func(int) hostif.Datapath{
		func(n int) hostif.Datapath { return hostif.NewSocketPath(n) },
		func(n int) hostif.Datapath { return hostif.NewNCSPath(n) },
	} {
		p := mk(size)
		b.Run(p.Name(), func(b *testing.B) {
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				p.Transmit(app)
			}
			b.ReportMetric(float64(p.AccessesPerWord()), "accesses_per_word")
		})
	}
}

// BenchmarkFig4Overlap regenerates Figure 4's underlying runs (2-node
// matmul, threaded vs not) and reports the modeled times.
func BenchmarkFig4Overlap(b *testing.B) {
	pl := bench.NYNET1995()
	b.Run("p4", func(b *testing.B) {
		benchTableCell(b, func() float64 { return bench.MatmulP4(pl, 2) })
	})
	b.Run("ncs", func(b *testing.B) {
		benchTableCell(b, func() float64 { return bench.MatmulNCS(pl, 2) })
	})
}

// BenchmarkFig16Pipeline regenerates Figure 16's underlying runs (4-worker
// JPEG pipeline).
func BenchmarkFig16Pipeline(b *testing.B) {
	pl := bench.NYNET1995()
	b.Run("p4", func(b *testing.B) {
		benchTableCell(b, func() float64 { return bench.JPEGP4(pl, 4) })
	})
	b.Run("ncs", func(b *testing.B) {
		benchTableCell(b, func() float64 { return bench.JPEGNCS(pl, 4) })
	})
}

// BenchmarkATMAPIvsP4 is experiment E8: NCS Approach 2 (HSM over the ATM
// API) against Approach 1 on the table workloads.
func BenchmarkATMAPIvsP4(b *testing.B) {
	var rows []bench.E8Row
	for i := 0; i < b.N; i++ {
		rows = bench.E8ApproachTwo()
	}
	names := []string{"hsm_speedup_matmul", "hsm_speedup_jpeg"}
	for i, r := range rows {
		if i < len(names) {
			b.ReportMetric(r.Speedup, names[i])
		}
	}
}

// BenchmarkWANSweep is the WAN extension experiment.
func BenchmarkWANSweep(b *testing.B) {
	var rows []bench.WANRow
	for i := 0; i < b.N; i++ {
		rows = bench.WANSweep()
	}
	b.ReportMetric(rows[len(rows)-1].Improvement, "impr_pct_at_15ms")
}

// meshClasses are the two traffic classes the scale mesh runs: a
// high-priority 8 KB "prio" class and a low-priority 32 KB "bulk" class,
// both windowed.
var meshClasses = []struct {
	id   core.ChannelID
	prio int
	size int
	win  int
}{
	{id: 1, prio: 6, size: 8 << 10, win: 4},
	{id: 2, prio: 0, size: 32 << 10, win: 8},
}

// meshProcs is the ring size: eight processes (eight adjacent pairs), so
// there is real work to spread when -cpu grows.
const meshProcs = 8

// runScaleMesh drives one ring cell: meshProcs processes, one channel per
// class per direction on every adjacent pair, b.N messages each way (so
// piggybacked control gets reverse data to ride). lanes goes straight into
// Config.SendLanes/RecvLanes: 1 is one lane under the thread driver (the
// paper's two system threads), 0 the default (min(GOMAXPROCS, 4) lanes).
func runScaleMesh(b *testing.B, lanes int) {
	const nProcs = meshProcs
	classes := meshClasses

	mem := transport.NewMem()
	procs := make([]*core.Proc, nProcs)
	for i := range procs {
		rt := mts.New(mts.Config{Name: fmt.Sprintf("mesh%d", i), IdleTimeout: time.Minute})
		procs[i] = core.New(core.Config{
			ID: core.ProcID(i), RT: rt, Endpoint: mem.Attach(core.ProcID(i), rt),
			SendLanes: lanes, RecvLanes: lanes,
		})
	}

	// chans[{i,j}][c] is proc i's end of class c toward neighbor j.
	chans := make(map[[2]int][]*core.Channel)
	for i := 0; i < nProcs; i++ {
		j := (i + 1) % nProcs
		for _, cl := range classes {
			chans[[2]int{i, j}] = append(chans[[2]int{i, j}],
				procs[i].Open(core.ProcID(j), core.ChannelConfig{ID: cl.id, Priority: cl.prio, Flow: core.NewWindowFlow(cl.win)}))
			chans[[2]int{j, i}] = append(chans[[2]int{j, i}],
				procs[j].Open(core.ProcID(i), core.ChannelConfig{ID: cl.id, Priority: cl.prio, Flow: core.NewWindowFlow(cl.win)}))
		}
	}

	// Receiver threads are created first in a fixed order, so the thread
	// index a sender must address is computable: on proc i, the receiver
	// for (neighbor d, class c) is thread d*K + c.
	neighbors := func(i int) [2]int { return [2]int{(i + 1) % nProcs, (i - 1 + nProcs) % nProcs} }
	rxIdx := func(i, peer, c int) int {
		for d, j := range neighbors(i) {
			if j == peer {
				return d*len(classes) + c
			}
		}
		panic("bench: procs are not ring neighbors")
	}
	for i := 0; i < nProcs; i++ {
		for _, j := range neighbors(i) {
			for c, cl := range classes {
				cc, size := chans[[2]int{i, j}][c], cl.size
				procs[i].TCreate(fmt.Sprintf("rx%d.%d", j, c), mts.PrioDefault, func(t *core.Thread) {
					buf := make([]byte, size)
					for k := 0; k < b.N; k++ {
						cc.RecvInto(t, buf, core.Any)
					}
				})
			}
		}
	}
	perIter := 0
	for i := 0; i < nProcs; i++ {
		for _, j := range neighbors(i) {
			for c, cl := range classes {
				cc, size := chans[[2]int{i, j}][c], cl.size
				to := rxIdx(j, i, c)
				perIter += size
				procs[i].TCreate(fmt.Sprintf("tx%d.%d", j, c), mts.PrioDefault, func(t *core.Thread) {
					buf := make([]byte, size)
					for k := 0; k < b.N; k++ {
						cc.Send(t, to, buf)
					}
				})
			}
		}
	}

	b.SetBytes(int64(perIter))
	b.ResetTimer()
	start := time.Now()
	done := make(chan struct{}, nProcs)
	for _, p := range procs {
		p := p
		go func() { p.Start(); done <- struct{}{} }()
	}
	for range procs {
		<-done
	}
	elapsed := time.Since(start)
	b.StopTimer()

	var bytes, standalone, piggybacked int64
	for _, list := range chans {
		for _, c := range list {
			s := c.Stats()
			bytes += s.BytesSent
			standalone += s.CtrlStandalone
			piggybacked += s.CtrlPiggybacked
		}
	}
	b.ReportMetric(float64(bytes)/1e6/elapsed.Seconds(), "agg_MB/s")
	if total := standalone + piggybacked; total > 0 {
		b.ReportMetric(float64(piggybacked)/float64(total), "piggy_share")
	}
}

// BenchmarkScaleMesh is the A/B instrument for the lane engines (ROADMAP's
// evidence rule; lane.go's inlinePassMax). `go test -cpu 1,2,4 -bench
// ScaleMesh` is the core-count sweep: lane1 and sharded run the 8-proc ring
// on one lane under the thread driver and on the default lane count.
func BenchmarkScaleMesh(b *testing.B) {
	b.Run("lane1", func(b *testing.B) { runScaleMesh(b, 1) })
	b.Run("sharded", func(b *testing.B) { runScaleMesh(b, 0) })
}

// --- Micro-benchmarks of the substrates (real work, real ns/op) ---------

// aal5Rows are the AAL5 micro-benchmarks' payload sizes, each given as the
// runs AppendCellRuns reads. The 64 B and 1 KB rows are one run. The 8184 B
// row is a message's first frame cut as udpatm cuts it: an 8-octet chunk
// header, a 44-octet message header (36 plus both piggyback words) and the
// body, so its first two cells straddle runs and the rest lie in the body.
var aal5Rows = []struct {
	name string
	runs [][]byte
}{
	{"64B", [][]byte{make([]byte, 64)}},
	{"1KB", [][]byte{make([]byte, 1024)}},
	{"8184B", [][]byte{make([]byte, 8), make([]byte, 44), make([]byte, 8184-8-44)}},
}

func runsLen(runs [][]byte) (n int) {
	for _, r := range runs {
		n += len(r)
	}
	return n
}

// BenchmarkAAL5Segment measures cell segmentation throughput on the path
// the UDP fabric ships: AppendCellRuns into a reused datagram buffer.
func BenchmarkAAL5Segment(b *testing.B) {
	vc := atm.VC{VCI: 100}
	for _, row := range aal5Rows {
		runs := row.runs
		b.Run(row.name, func(b *testing.B) {
			var cells []byte
			b.SetBytes(int64(runsLen(runs)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if cells, err = atm.AppendCellRuns(cells[:0], vc, runs...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAAL5Reassemble measures the receive path incl. HEC and CRC
// verify as shipped: PushWire over a frame's wire cells.
func BenchmarkAAL5Reassemble(b *testing.B) {
	vc := atm.VC{VCI: 100}
	for _, row := range aal5Rows {
		runs := row.runs
		b.Run(row.name, func(b *testing.B) {
			cells, err := atm.AppendCellRuns(nil, vc, runs...)
			if err != nil {
				b.Fatal(err)
			}
			r := atm.NewReassembler(vc)
			b.SetBytes(int64(runsLen(runs)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, done, err := r.PushWire(cells); !done || err != nil {
					b.Fatalf("done=%v err=%v", done, err)
				}
			}
		})
	}
}

// BenchmarkContextSwitch measures one NCS_MTS cooperative switch between two
// yielding threads under each driver: "run" is Run, where the yielding
// thread's goroutine dispatches its peer itself — the path every real-mode
// proc rides — and "step" is Dispatch, the sim engine's step driver, where
// each switch returns to the caller.
func BenchmarkContextSwitch(b *testing.B) {
	b.Run("run", func(b *testing.B) {
		rt := mts.New(mts.Config{Name: "bench"})
		for i := 0; i < 2; i++ {
			// Every Yield is one switch; b.N of them between the two.
			yields := (b.N + i) / 2
			rt.Create("spinner", mts.PrioDefault, func(t *mts.Thread) {
				for j := 0; j < yields; j++ {
					t.Yield()
				}
			})
		}
		b.ResetTimer()
		rt.Run()
	})
	b.Run("step", func(b *testing.B) {
		rt := mts.New(mts.Config{Name: "bench"})
		stop := false
		for i := 0; i < 2; i++ {
			rt.Create("spinner", mts.PrioDefault, func(t *mts.Thread) {
				for !stop {
					t.Yield()
				}
			})
		}
		b.ResetTimer()
		// Each Dispatch is one switch; run b.N of them.
		for i := 0; i < b.N; i++ {
			rt.Dispatch()
		}
		b.StopTimer()
		stop = true
		for rt.HasRunnable() {
			rt.Dispatch()
		}
	})
}

// BenchmarkMemTransportRoundtrip measures message marshal+deliver latency
// through the real-mode in-process transport.
func BenchmarkMemTransportRoundtrip(b *testing.B) {
	mem := transport.NewMem()
	rtA := mts.New(mts.Config{Name: "a", IdleTimeout: time.Minute})
	rtB := mts.New(mts.Config{Name: "b", IdleTimeout: time.Minute})
	epA := mem.Attach(0, rtA)
	epB := mem.Attach(1, rtB)
	payload := make([]byte, 1024)

	b.SetBytes(int64(len(payload)))
	var echo, waiter *mts.Thread
	epB.SetHandler(func(m *transport.Message) { rtB.Unblock(echo, false) })
	epA.SetHandler(func(m *transport.Message) { rtA.Unblock(waiter, false) })
	echo = rtB.Create("echo", mts.PrioDefault, func(t *mts.Thread) {
		for i := 0; i < b.N; i++ {
			t.Park("req")
			epB.Send(t, &transport.Message{From: 1, To: 0, Data: payload})
		}
	})
	waiter = rtA.Create("driver", mts.PrioDefault, func(t *mts.Thread) {
		for i := 0; i < b.N; i++ {
			epA.Send(t, &transport.Message{From: 0, To: 1, Data: payload})
			t.Park("resp")
		}
	})
	b.ResetTimer()
	done := make(chan struct{}, 2)
	go func() { rtA.Run(); done <- struct{}{} }()
	go func() { rtB.Run(); done <- struct{}{} }()
	<-done
	<-done
}

// BenchmarkDCTBlock measures the 8x8 forward DCT.
func BenchmarkDCTBlock(b *testing.B) {
	var src, dst jpegcodec.Block
	for i := range src {
		src[i] = float64(i%255) - 128
	}
	for i := 0; i < b.N; i++ {
		jpegcodec.FDCT(&src, &dst)
	}
}

// BenchmarkJPEGEncode measures the full codec on a 128x128 tile.
func BenchmarkJPEGEncode(b *testing.B) {
	img := jpegcodec.Synthetic(128, 128)
	b.SetBytes(int64(len(img.Pix)))
	for i := 0; i < b.N; i++ {
		jpegcodec.Encode(img, 75)
	}
}

// BenchmarkFFTKernel measures the 512-point transform the paper's Table 3
// distributes.
func BenchmarkFFTKernel(b *testing.B) {
	x := fft.RandomSignal(512, 1)
	buf := make([]complex128, len(x))
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		fft.Forward(buf)
	}
}
