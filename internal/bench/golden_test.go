package bench

import (
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// The modeled numbers are an oracle for the NCS core: every experiment here
// is a discrete-event run, so its rendered output is a pure function of the
// code. A refactor of the system-thread path that moves a charge to the
// wrong thread, delivers a send completion per pass instead of per run
// (Figure 4's overlap), or changes the order threads are woken in moves a
// table cell; anything that changes when a frame leaves a lane or what the
// signaling and failure planes put on the wire moves a virtual-mesh
// timeline hash. Either fails here, on every `go test ./...`.
//
// Each case renders exactly what `ncsbench -experiment <name>` prints
// (scale: scale1k at -n 64 and -n 256, seed 7; -n 1024 takes over a minute
// and is a CI step instead). The one re-record rule, for every case:
// `go test ./internal/bench -run Golden -update`, and only with the cell or
// hash, its before/after value and the cause in CHANGES.md.

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// The virtual-mesh experiments run once per test binary: the golden cases
// and TestModeledFloors read the same results.
var (
	collectivesOnce = sync.OnceValue(Collectives)
	scale256Once    = sync.OnceValue(func() ScaleResult { return Scale(256, 7) })
	churnOnce       = sync.OnceValue(Churn)
	faultsOnce      = sync.OnceValue(Faults)
	arqOnce         = sync.OnceValue(ARQSweep)
	qosOnce         = sync.OnceValue(QoS)
)

func TestGoldenModeledOutput(t *testing.T) {
	cases := []struct {
		name   string
		render func() string
	}{
		{"table1", RenderTable1},
		{"table2", RenderTable2},
		{"table3", RenderTable3},
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
		{"ablation", RenderAblations},
		{"collectives", func() string { return RenderCollectives(collectivesOnce()) }},
		{"scale", func() string { return RenderScale(Scale(64, 7)) + "\n" + RenderScale(scale256Once()) }},
		{"churn", func() string { return RenderChurn(churnOnce()) }},
		{"faults", func() string { return RenderFaults(faultsOnce()) }},
		{"arq", func() string { return RenderARQ(arqOnce()) }},
		{"qos", func() string { return RenderQoS(qosOnce()) }},
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

// TestModeledFloors holds what the goldens cannot say by themselves: a
// re-recorded golden is still wrong if the tree stopped beating the linear
// form, the overload stopped rejecting, state leaked, or a same-seed rerun
// diverged.
func TestModeledFloors(t *testing.T) {
	t.Parallel()
	coll, scale, churn, faults := collectivesOnce(), scale256Once(), churnOnce(), faultsOnce()
	churnAgain, faultsAgain := Churn().Timeline, Faults().Timeline
	speedup := func(op string, n int) float64 {
		for _, r := range coll {
			if r.Op == op && r.N == n {
				return r.Speedup()
			}
		}
		t.Fatalf("no collectives row %s N=%d", op, n)
		return 0
	}
	arqShort := 0 // ARQ rows that lost a message or gave up on the live peer
	for _, r := range arqOnce() {
		if r.Delivered != r.Msgs || r.GiveUps != 0 {
			arqShort++
		}
	}
	qos := qosOnce()
	soloBulk, mixed, equal := qos.Mix[1], qos.Mix[2], qos.Share[0]
	for _, f := range []struct {
		what string
		ok   bool
		got  any
	}{
		{"collectives N=16 barrier tree vs linear >= 2.0x", speedup("barrier", 16) >= 2.0, speedup("barrier", 16)},
		{"collectives N=16 bcast tree vs linear >= 2.0x", speedup("bcast", 16) >= 2.0, speedup("bcast", 16)},
		{"scale N=256 bcast tree vs linear >= 6.0x", scale.BcastSpeedup() >= 6.0, scale.BcastSpeedup()},
		{"scale N=256 barrier tree vs linear >= 3.0x", scale.BarrierSpeedup() >= 3.0, scale.BarrierSpeedup()},
		{"scale N=256 ring rerun reproduces its timeline", scale.Reproduced(), scale.RingRerun.Timeline},
		{"churn leaks == 0", churn.Leaks == 0, churn.Leaks},
		{"churn rejection rate > 0 (the bucket is overloaded)", churn.RejectionRate > 0, churn.RejectionRate},
		{"churn rerun reproduces its timeline", churnAgain == churn.Timeline, churnAgain},
		{"faults leaks == 0", faults.Leaks == 0, faults.Leaks},
		{"faults typed deaths == procs", faults.TypedDeaths == faults.Procs, faults.TypedDeaths},
		{"faults detection p99 <= (Misses+2)*Interval", faults.DetectP99Us <= faults.BoundUs, faults.DetectP99Us},
		{"faults rerun reproduces its timeline", faultsAgain == faults.Timeline, faultsAgain},
		{"arq rows short of full delivery or with a give-up == 0", arqShort == 0, arqShort},
		{"qos ping kept running beside the bulk stream", mixed.Pings > 0, mixed.Pings},
		{"qos bulk goodput beside the ping >= 0.95x alone", mixed.BulkMBps >= 0.95*soloBulk.BulkMBps, mixed.BulkMBps},
		{"qos equal-priority channels each >= 0.4 of the deliveries", min(equal.Share[0], equal.Share[1]) >= 0.4, equal.Share},
	} {
		if !f.ok {
			t.Errorf("%s: got %v", f.what, f.got)
		}
	}
}
