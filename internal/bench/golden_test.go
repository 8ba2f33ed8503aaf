package bench

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The modeled numbers are an oracle for the NCS core: every experiment here
// is a discrete-event run, so its rendered output is a pure function of the
// code. The goldens were recorded before internal/core's two send/recv
// engines became one protocol body under three drivers; a refactor of the
// system-thread path that moves a charge to the wrong thread, delivers a
// send completion per pass instead of per run (Figure 4's overlap), or
// changes the order threads are woken in moves a cell and fails here.
//
// Each case renders exactly what `ncsbench -experiment <name>` prints.
// Re-record (only with the cell, its before/after value and the cause in
// CHANGES.md) with `go test ./internal/bench -run Golden -update`.

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

func TestGoldenModeledOutput(t *testing.T) {
	eth, ny := Ethernet1995(), NYNET1995()
	cases := []struct {
		name   string
		render func() string
	}{
		{"table1", func() string {
			return RenderTable("Table 1 — matrix multiplication 128x128 (seconds), Ethernet",
				Table1(eth, []int{1, 2, 4, 8}), PaperTable1Ethernet) + "\n" +
				RenderTable("Table 1 — matrix multiplication 128x128 (seconds), NYNET",
					Table1(ny, []int{1, 2, 4}), PaperTable1NYNET)
		}},
		{"table2", func() string {
			return RenderTable("Table 2 — JPEG pipeline, 600 KB image (seconds), Ethernet",
				Table2(eth, []int{2, 4, 8}), PaperTable2Ethernet) + "\n" +
				RenderTable("Table 2 — JPEG pipeline, 600 KB image (seconds), NYNET",
					Table2(ny, []int{2, 4}), PaperTable2NYNET)
		}},
		{"table3", func() string {
			return RenderTable("Table 3 — DIF FFT, M=512, 8 sets (seconds), Ethernet",
				Table3(eth, []int{1, 2, 4, 8}), PaperTable3Ethernet) + "\n" +
				RenderTable("Table 3 — DIF FFT, M=512, 8 sets (seconds), NYNET",
					Table3(ny, []int{1, 2, 4}), PaperTable3NYNET)
		}},
		{"fig2", func() string { return RenderFig2(Figure2(256*1024, []int{1, 2, 4, 8}), 256*1024) }},
		{"fig3", func() string {
			// The last column is wall-clock time on this machine; the counted
			// accesses are the modeled part.
			rows := Figure3(64*1024, 200)
			for i := range rows {
				rows[i].NsPerKB = 0
			}
			return RenderFig3(rows, 64*1024)
		}},
		{"fig4", Figure4},
		{"fig16", Figure16},
		{"atmapi", func() string { return RenderE8(E8ApproachTwo()) }},
		{"wan", func() string { return RenderWAN(WANSweep()) }},
		{"ablation", func() string {
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
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got := tc.render()
			path := filepath.Join("testdata", tc.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("%s moved from its golden.\n--- got\n%s\n--- want\n%s", tc.name, got, want)
			}
		})
	}
}
