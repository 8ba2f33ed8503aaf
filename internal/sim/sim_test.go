package sim

import (
	"testing"
	"time"

	"repro/internal/mts"
	"repro/internal/vclock"
)

func TestComputeAdvancesVirtualTime(t *testing.T) {
	e := NewEngine()
	n := e.NewNode("n0")
	var after vclock.Time
	n.RT().Create("worker", mts.PrioDefault, func(th *mts.Thread) {
		n.Compute(th, 3*time.Second)
		after = e.Now()
	})
	e.Run()
	if after != vclock.Time(3*time.Second) {
		t.Fatalf("time after compute = %v, want 3s", after.Seconds())
	}
	if n.BusyTime() != 3*time.Second {
		t.Fatalf("busy = %v, want 3s", n.BusyTime())
	}
}

func TestComputeHoldsCPU(t *testing.T) {
	e := NewEngine()
	n := e.NewNode("n0")
	var order []string
	n.RT().Create("burst", mts.PrioDefault, func(th *mts.Thread) {
		n.Compute(th, 2*time.Second)
		order = append(order, "burst-done")
	})
	n.RT().Create("other", mts.PrioDefault, func(th *mts.Thread) {
		order = append(order, "other")
	})
	e.Run()
	// "other" must not run during the burst — it runs only after the CPU
	// is released, and the burst owner resumes first.
	if len(order) != 2 || order[0] != "burst-done" || order[1] != "other" {
		t.Fatalf("order = %v, want [burst-done other]", order)
	}
}

func TestNodesComputeInParallel(t *testing.T) {
	e := NewEngine()
	a := e.NewNode("a")
	b := e.NewNode("b")
	var aDone, bDone vclock.Time
	a.RT().Create("wa", mts.PrioDefault, func(th *mts.Thread) {
		a.Compute(th, 5*time.Second)
		aDone = e.Now()
	})
	b.RT().Create("wb", mts.PrioDefault, func(th *mts.Thread) {
		b.Compute(th, 5*time.Second)
		bDone = e.Now()
	})
	e.Run()
	// Two nodes are two CPUs: both finish at t=5s, not 10s.
	if aDone != vclock.Time(5*time.Second) || bDone != vclock.Time(5*time.Second) {
		t.Fatalf("aDone=%v bDone=%v, want both 5s", aDone.Seconds(), bDone.Seconds())
	}
}

func TestSleepDoesNotHoldCPU(t *testing.T) {
	e := NewEngine()
	n := e.NewNode("n0")
	var otherRanAt vclock.Time = -1
	n.RT().Create("sleeper", mts.PrioDefault, func(th *mts.Thread) {
		th.Sleep(10 * time.Second)
	})
	n.RT().Create("other", mts.PrioDefault, func(th *mts.Thread) {
		otherRanAt = e.Now()
	})
	e.Run()
	if otherRanAt != 0 {
		t.Fatalf("other ran at %v, want 0 (during the sleep)", otherRanAt.Seconds())
	}
}

// TestThreadComputeChargesCostSkipsFn: a node's runtime is virtual, so
// Thread.Compute charges the cost to the node's CPU and never runs fn.
func TestThreadComputeChargesCostSkipsFn(t *testing.T) {
	e := NewEngine()
	n := e.NewNode("n0")
	ran := false
	n.RT().Create("w", mts.PrioDefault, func(th *mts.Thread) {
		th.Compute(3*time.Second, func() { ran = true })
	})
	e.Run()
	if ran {
		t.Fatal("Compute ran fn in virtual time")
	}
	if e.Now() != vclock.Time(3*time.Second) || n.BusyTime() != 3*time.Second {
		t.Fatalf("virtual time = %vs, busy = %v, want 3s and 3s", e.Now().Seconds(), n.BusyTime())
	}
}

// TestRuntimeAfterIsVirtual: a node's runtime reports virtual time, and its
// After is an engine event, not a wall-clock timer.
func TestRuntimeAfterIsVirtual(t *testing.T) {
	e := NewEngine()
	n := e.NewNode("n0")
	if !n.RT().Virtual() {
		t.Fatal("node runtime is not virtual")
	}
	var firedAt vclock.Time = -1
	n.RT().Create("w", mts.PrioDefault, func(th *mts.Thread) {
		n.RT().After(time.Hour, func() { firedAt = e.Now() })
	})
	e.Run()
	if firedAt != vclock.Time(time.Hour) {
		t.Fatalf("timer fired at %vs, want 3600s", firedAt.Seconds())
	}
}

func TestOverlapComputeAndEvent(t *testing.T) {
	// The paper's core claim in miniature: a message "arrives" (event at
	// t=1s) while the CPU is busy until t=4s; the receiver thread runs at
	// t=4s, not t=1s (non-preemptive), but no extra time is lost.
	e := NewEngine()
	n := e.NewNode("n0")
	var recvAt vclock.Time = -1
	var receiver *mts.Thread
	receiver = n.RT().Create("receiver", mts.PrioSystem, func(th *mts.Thread) {
		th.Park("wait msg")
		recvAt = e.Now()
	})
	n.RT().Create("computer", mts.PrioDefault, func(th *mts.Thread) {
		e.Schedule(1*time.Second, func() { n.RT().Unblock(receiver, false) })
		n.Compute(th, 4*time.Second)
	})
	e.Run()
	if recvAt != vclock.Time(4*time.Second) {
		t.Fatalf("receiver ran at %v, want 4s (after the burst)", recvAt.Seconds())
	}
}

func TestBurstOwnerResumesBeforePeers(t *testing.T) {
	e := NewEngine()
	n := e.NewNode("n0")
	var order []string
	n.RT().Create("a", mts.PrioDefault, func(th *mts.Thread) {
		n.Compute(th, 1*time.Second)
		order = append(order, "a-after-burst")
		th.Yield()
		order = append(order, "a-end")
	})
	n.RT().Create("b", mts.PrioDefault, func(th *mts.Thread) {
		order = append(order, "b")
	})
	e.Run()
	if order[0] != "a-after-burst" {
		t.Fatalf("order = %v: burst owner did not resume first", order)
	}
}

func TestScheduleOrderingAndCancel(t *testing.T) {
	e := NewEngine()
	var fired []int
	e.Schedule(2*time.Second, func() { fired = append(fired, 2) })
	ev := e.Schedule(1*time.Second, func() { fired = append(fired, 1) })
	e.Schedule(3*time.Second, func() { fired = append(fired, 3) })
	e.Cancel(ev)
	e.Run()
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 3 {
		t.Fatalf("fired = %v, want [2 3]", fired)
	}
}

func TestDeadlockPanicsWithDump(t *testing.T) {
	e := NewEngine()
	n := e.NewNode("n0")
	n.RT().Create("stuck", mts.PrioDefault, func(th *mts.Thread) { th.Park("never") })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("deadlocked Run did not panic")
		}
		n.RT().Kill()
	}()
	e.Run()
}

func TestMaxTimeAborts(t *testing.T) {
	e := NewEngine()
	e.SetMaxTime(1 * time.Second)
	n := e.NewNode("n0")
	n.RT().Create("loop", mts.PrioDefault, func(th *mts.Thread) {
		for {
			n.Compute(th, time.Second)
		}
	})
	defer func() {
		if recover() == nil {
			t.Fatal("runaway simulation did not panic at MaxTime")
		}
		n.RT().Kill()
	}()
	e.Run()
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		for i := 0; i < 3; i++ {
			n := e.NewNode("n")
			i := i
			n.RT().Create("w", mts.PrioDefault, func(th *mts.Thread) {
				n.Compute(th, time.Duration(i+1)*time.Second)
				log = append(log, n.Name()+"-done")
				n.Compute(th, time.Second)
				log = append(log, n.Name()+"-done2")
			})
		}
		e.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a, b)
		}
	}
}

func TestStepSingleStepsEvents(t *testing.T) {
	e := NewEngine()
	n := e.NewNode("n0")
	n.RT().Create("w", mts.PrioDefault, func(th *mts.Thread) {
		n.Compute(th, time.Second)
		n.Compute(th, time.Second)
	})
	steps := 0
	for e.Step() {
		steps++
		if steps > 100 {
			t.Fatal("Step never terminated")
		}
	}
	if e.Now() != vclock.Time(2*time.Second) {
		t.Fatalf("final time = %v, want 2s", e.Now().Seconds())
	}
}

func TestZeroComputeIsFree(t *testing.T) {
	e := NewEngine()
	n := e.NewNode("n0")
	n.RT().Create("w", mts.PrioDefault, func(th *mts.Thread) {
		n.Compute(th, 0)
	})
	e.Run()
	if e.Now() != 0 {
		t.Fatalf("zero compute advanced time to %v", e.Now().Seconds())
	}
}
