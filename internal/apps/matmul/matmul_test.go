package matmul

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/mts"
	"repro/internal/netsim"
	"repro/internal/p4"
	"repro/internal/sim"
	"repro/internal/tcpip"
	"repro/internal/transport"
)

func TestMultiplyIdentity(t *testing.T) {
	n := 8
	a := RandomMatrix(n, 1)
	id := NewMatrix(n)
	for i := 0; i < n; i++ {
		id.Data[i*n+i] = 1
	}
	c := Multiply(a, id)
	if d := MaxAbsDiff(c, a); d != 0 {
		t.Fatalf("A*I != A (diff %g)", d)
	}
}

func TestMultiplyKnown(t *testing.T) {
	a := Matrix{N: 2, Data: []float64{1, 2, 3, 4}}
	b := Matrix{N: 2, Data: []float64{5, 6, 7, 8}}
	c := Multiply(a, b)
	want := []float64{19, 22, 43, 50}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("C = %v, want %v", c.Data, want)
		}
	}
}

func TestMultiplyRowsPartial(t *testing.T) {
	n := 16
	a := RandomMatrix(n, 2)
	b := RandomMatrix(n, 3)
	whole := Multiply(a, b)
	part := NewMatrix(n)
	MultiplyRows(a, b, part, 4, 12)
	for i := 4 * n; i < 12*n; i++ {
		if part.Data[i] != whole.Data[i] {
			t.Fatal("partial rows differ from full multiply")
		}
	}
	for i := 0; i < 4*n; i++ {
		if part.Data[i] != 0 {
			t.Fatal("rows outside the range were touched")
		}
	}
}

func TestSplitCoversAllRows(t *testing.T) {
	f := func(dim, n uint8) bool {
		d := int(dim%64) + 1
		w := int(n%8) + 1
		covered := 0
		prevHi := 0
		for i := 0; i < w; i++ {
			lo, hi := split(d, w, i)
			if lo != prevHi {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == d && prevHi == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// realP4Group builds real-mode p4 processes over Mem.
func realP4Group(n int) []*p4.Process {
	mem := transport.NewMem()
	procs := make([]*p4.Process, n)
	for i := 0; i < n; i++ {
		rt := mts.New(mts.Config{Name: fmt.Sprintf("p%d", i), IdleTimeout: 20 * time.Second})
		procs[i] = p4.New(p4.Config{ID: p4.ProcID(i), RT: rt, Endpoint: mem.Attach(transport.ProcID(i), rt)})
	}
	return procs
}

func realNCSGroup(n int) []*core.Proc {
	mem := transport.NewMem()
	procs := make([]*core.Proc, n)
	for i := 0; i < n; i++ {
		rt := mts.New(mts.Config{Name: fmt.Sprintf("p%d", i), IdleTimeout: 20 * time.Second})
		procs[i] = core.New(core.Config{ID: core.ProcID(i), RT: rt, Endpoint: mem.Attach(transport.ProcID(i), rt)})
	}
	return procs
}

func runNCS(procs []*core.Proc) {
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
}

func TestDistributedP4MatchesSequential(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4} {
		cfg := Config{Dim: 32, Workers: workers, Seed: 5}
		procs := realP4Group(workers + 1)
		res := BuildP4(procs, cfg)
		(&p4.Procgroup{Procs: procs}).RunReal()
		want := Multiply(RandomMatrix(32, 5), RandomMatrix(32, 6))
		if d := MaxAbsDiff(res.C, want); d > 1e-12 {
			t.Fatalf("workers=%d: p4 result off by %g", workers, d)
		}
	}
}

func TestDistributedNCSMatchesSequential(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		cfg := Config{Dim: 32, Workers: workers, Seed: 5}
		procs := realNCSGroup(workers + 1)
		res := BuildNCS(procs, cfg, 2)
		runNCS(procs)
		want := Multiply(RandomMatrix(32, 5), RandomMatrix(32, 6))
		if d := MaxAbsDiff(res.C, want); d > 1e-12 {
			t.Fatalf("workers=%d: NCS result off by %g", workers, d)
		}
	}
}

func TestNCSUnevenDims(t *testing.T) {
	// Dimension not divisible by workers*threads exercises the remainder
	// handling in split.
	cfg := Config{Dim: 30, Workers: 4, Seed: 9}
	procs := realNCSGroup(5)
	res := BuildNCS(procs, cfg, 2)
	runNCS(procs)
	want := Multiply(RandomMatrix(30, 9), RandomMatrix(30, 10))
	if d := MaxAbsDiff(res.C, want); d > 1e-12 {
		t.Fatalf("result off by %g", d)
	}
}

func TestSimModeElapsedPopulated(t *testing.T) {
	eng := sim.NewEngine()
	net := netsim.NewEthernetLAN(eng, 3, netsim.EthernetConfig{BitsPerSecond: 8e6})
	cost := tcpip.CostModel{MTU: 1460, PerMessage: time.Millisecond}
	procs := make([]*p4.Process, 3)
	for i := 0; i < 3; i++ {
		node := eng.NewNode(fmt.Sprintf("n%d", i))
		ep := tcpip.NewSimTCP(node, net, i, cost)
		procs[i] = p4.New(p4.Config{ID: p4.ProcID(i), RT: node.RT(), Endpoint: ep})
	}
	res := BuildP4(procs, Config{Dim: 16, Workers: 2, OpCost: time.Microsecond, Seed: 1})
	eng.Run()
	if res.Elapsed <= 0 {
		t.Fatalf("sim elapsed = %v", res.Elapsed)
	}
	// 16^3 us of compute split over 2 workers = ~2ms floor.
	if res.Elapsed < 2*time.Millisecond {
		t.Fatalf("elapsed %v below compute floor", res.Elapsed)
	}
}
