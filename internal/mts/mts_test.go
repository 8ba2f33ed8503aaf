package mts

import (
	"testing"
	"testing/quick"
	"time"
)

func newTestRT() *Runtime {
	return New(Config{Name: "test", IdleTimeout: 5 * time.Second})
}

func TestSingleThreadRuns(t *testing.T) {
	rt := newTestRT()
	ran := false
	rt.Create("t0", PrioDefault, func(*Thread) { ran = true })
	rt.Run()
	if !ran {
		t.Fatal("thread body never ran")
	}
	if rt.Live() != 0 {
		t.Fatalf("Live = %d after Run", rt.Live())
	}
}

func TestCreationOrderWithinPriority(t *testing.T) {
	rt := newTestRT()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		rt.Create("t", PrioDefault, func(*Thread) { order = append(order, i) })
	}
	rt.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("run order %v, want creation order", order)
		}
	}
}

func TestPriorityOrder(t *testing.T) {
	rt := newTestRT()
	var order []string
	rt.Create("low", 10, func(*Thread) { order = append(order, "low") })
	rt.Create("high", 2, func(*Thread) { order = append(order, "high") })
	rt.Create("mid", 5, func(*Thread) { order = append(order, "mid") })
	rt.Run()
	want := []string{"high", "mid", "low"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestYieldRoundRobin(t *testing.T) {
	rt := newTestRT()
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		rt.Create("t", PrioDefault, func(th *Thread) {
			for rep := 0; rep < 3; rep++ {
				order = append(order, i)
				th.Yield()
			}
		})
	}
	rt.Run()
	want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("got %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("round-robin order = %v, want %v", order, want)
		}
	}
}

func TestParkUnblock(t *testing.T) {
	rt := newTestRT()
	var events []string
	var sleeper *Thread
	sleeper = rt.Create("sleeper", PrioDefault, func(th *Thread) {
		events = append(events, "sleeping")
		th.Park("wait for waker")
		events = append(events, "woken")
	})
	rt.Create("waker", PrioDefault, func(th *Thread) {
		events = append(events, "waking")
		rt.Unblock(sleeper, false)
	})
	rt.Run()
	want := []string{"sleeping", "waking", "woken"}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

func TestUnblockFrontRunsFirst(t *testing.T) {
	rt := newTestRT()
	var order []string
	var a *Thread
	a = rt.Create("a", PrioDefault, func(th *Thread) {
		th.Park("hold")
		order = append(order, "a")
	})
	rt.Create("b", PrioDefault, func(th *Thread) {
		// a is blocked; c is queued behind b. Waking a to the *front*
		// must run it before c.
		rt.Unblock(a, true)
	})
	rt.Create("c", PrioDefault, func(th *Thread) {
		order = append(order, "c")
	})
	rt.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "c" {
		t.Fatalf("order = %v, want [a c]", order)
	}
}

func TestUnblockNonBlockedIsNoop(t *testing.T) {
	rt := newTestRT()
	var th0 *Thread
	th0 = rt.Create("t0", PrioDefault, func(th *Thread) {
		if rt.Unblock(th0, false) {
			t.Error("Unblock of running thread returned true")
		}
	})
	rt.Run()
}

func TestExternalPostWakeup(t *testing.T) {
	rt := newTestRT()
	done := false
	var waiter *Thread
	waiter = rt.Create("waiter", PrioDefault, func(th *Thread) {
		th.Park("external io")
		done = true
	})
	go func() {
		time.Sleep(10 * time.Millisecond)
		rt.Post(func() { rt.Unblock(waiter, false) })
	}()
	rt.Run()
	if !done {
		t.Fatal("waiter never woke from external post")
	}
}

func TestSleep(t *testing.T) {
	rt := newTestRT()
	start := time.Now()
	rt.Create("s", PrioDefault, func(th *Thread) { th.Sleep(20 * time.Millisecond) })
	rt.Run()
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("Sleep returned after %v, want >=20ms", d)
	}
}

// TestComputeRealRunsFnIgnoresCost: a real runtime runs the work and does
// not charge its modeled cost.
func TestComputeRealRunsFnIgnoresCost(t *testing.T) {
	rt := newTestRT()
	if rt.Virtual() {
		t.Fatal("a runtime on the default clock reports virtual time")
	}
	ran := false
	rt.Create("w", PrioDefault, func(th *Thread) {
		th.Compute(time.Hour, func() { ran = true })
	})
	start := time.Now()
	rt.Run()
	if !ran {
		t.Fatal("fn not run")
	}
	if time.Since(start) > time.Second {
		t.Fatal("Compute charged the cost")
	}
}

// TestComputeRealNilFn: a model-only Compute (no real work) is a no-op.
func TestComputeRealNilFn(t *testing.T) {
	rt := newTestRT()
	rt.Create("w", PrioDefault, func(th *Thread) {
		th.Compute(0, nil) // must not panic
	})
	rt.Run()
}

func TestDeadlockPanics(t *testing.T) {
	rt := New(Config{Name: "dl", IdleTimeout: 30 * time.Millisecond})
	rt.Create("stuck", PrioDefault, func(th *Thread) { th.Park("never") })
	defer func() {
		if recover() == nil {
			t.Fatal("deadlocked Run did not panic")
		}
		// The stuck thread's goroutine is still parked; reap it.
		rt.Kill()
	}()
	rt.Run()
}

func TestCreateFromRunningThread(t *testing.T) {
	rt := newTestRT()
	var order []string
	rt.Create("parent", PrioDefault, func(th *Thread) {
		order = append(order, "parent")
		rt.Create("child", PrioDefault, func(*Thread) {
			order = append(order, "child")
		})
	})
	rt.Run()
	if len(order) != 2 || order[1] != "child" {
		t.Fatalf("order = %v", order)
	}
}

func TestJoin(t *testing.T) {
	rt := newTestRT()
	var order []string
	worker := rt.Create("worker", PrioDefault, func(th *Thread) {
		th.Yield()
		order = append(order, "worker done")
	})
	rt.Create("joiner", PrioDefault, func(th *Thread) {
		Join(th, worker)
		order = append(order, "joined")
	})
	rt.Run()
	if len(order) != 2 || order[0] != "worker done" || order[1] != "joined" {
		t.Fatalf("order = %v", order)
	}
}

func TestJoinFinishedThreadReturnsImmediately(t *testing.T) {
	rt := newTestRT()
	worker := rt.Create("worker", 0, func(*Thread) {})
	ok := false
	rt.Create("joiner", 5, func(th *Thread) {
		Join(th, worker) // worker (higher prio) already done
		ok = true
	})
	rt.Run()
	if !ok {
		t.Fatal("join of finished thread hung")
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	rt := newTestRT()
	mu := NewMutex(rt)
	inCS := 0
	maxCS := 0
	for i := 0; i < 4; i++ {
		rt.Create("t", PrioDefault, func(th *Thread) {
			mu.Lock(th)
			inCS++
			if inCS > maxCS {
				maxCS = inCS
			}
			th.Yield() // try to let others violate the CS
			inCS--
			mu.Unlock(th)
		})
	}
	rt.Run()
	if maxCS != 1 {
		t.Fatalf("max concurrent critical-section occupancy = %d, want 1", maxCS)
	}
	if mu.Locked() {
		t.Fatal("mutex left locked")
	}
}

func TestCondSignalBroadcast(t *testing.T) {
	rt := newTestRT()
	mu := NewMutex(rt)
	cond := NewCond(mu)
	woken := 0
	for i := 0; i < 3; i++ {
		rt.Create("waiter", PrioDefault, func(th *Thread) {
			mu.Lock(th)
			cond.Wait(th)
			woken++
			mu.Unlock(th)
		})
	}
	rt.Create("signaler", PrioLowest, func(th *Thread) {
		cond.Signal()
		th.Yield()
		if woken != 1 {
			t.Errorf("after Signal woken = %d, want 1", woken)
		}
		cond.Broadcast()
	})
	rt.Run()
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
}

func TestSemaphore(t *testing.T) {
	rt := newTestRT()
	sem := NewSemaphore(rt, 2)
	active, maxActive := 0, 0
	for i := 0; i < 5; i++ {
		rt.Create("t", PrioDefault, func(th *Thread) {
			sem.Wait(th)
			active++
			if active > maxActive {
				maxActive = active
			}
			th.Yield()
			active--
			sem.Signal()
		})
	}
	rt.Run()
	if maxActive != 2 {
		t.Fatalf("max active = %d, want 2", maxActive)
	}
	if sem.Count() != 2 {
		t.Fatalf("final count = %d, want 2", sem.Count())
	}
}

func TestSemaphoreTryWait(t *testing.T) {
	rt := newTestRT()
	sem := NewSemaphore(rt, 1)
	rt.Create("t", PrioDefault, func(th *Thread) {
		if !sem.TryWait() {
			t.Error("TryWait with count 1 failed")
		}
		if sem.TryWait() {
			t.Error("TryWait with count 0 succeeded")
		}
	})
	rt.Run()
}

func TestBarrier(t *testing.T) {
	rt := newTestRT()
	const n = 4
	bar := NewBarrier(rt, n)
	phase := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		rt.Create("t", PrioDefault, func(th *Thread) {
			for p := 0; p < 3; p++ {
				phase[i] = p
				bar.Await(th)
				// After the barrier everyone must be in phase p.
				for j := 0; j < n; j++ {
					if phase[j] != p {
						t.Errorf("thread %d at phase %d while %d at %d", j, phase[j], i, p)
					}
				}
				bar.Await(th)
			}
		})
	}
	rt.Run()
	if bar.Generation() != 6 {
		t.Fatalf("generations = %d, want 6", bar.Generation())
	}
}

func TestChanBufferedFIFO(t *testing.T) {
	rt := newTestRT()
	ch := NewChan[int](rt, 2)
	var got []int
	rt.Create("producer", PrioDefault, func(th *Thread) {
		for i := 0; i < 5; i++ {
			ch.Send(th, i)
		}
	})
	rt.Create("consumer", PrioDefault, func(th *Thread) {
		for i := 0; i < 5; i++ {
			got = append(got, ch.Recv(th))
		}
	})
	rt.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v, want FIFO 0..4", got)
		}
	}
}

func TestChanRendezvous(t *testing.T) {
	rt := newTestRT()
	ch := NewChan[string](rt, 0)
	var got string
	rt.Create("recv", PrioDefault, func(th *Thread) { got = ch.Recv(th) })
	rt.Create("send", PrioDefault, func(th *Thread) { ch.Send(th, "hello") })
	rt.Run()
	if got != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestChanTryOps(t *testing.T) {
	rt := newTestRT()
	ch := NewChan[int](rt, 1)
	rt.Create("t", PrioDefault, func(th *Thread) {
		if _, ok := ch.TryRecv(); ok {
			t.Error("TryRecv on empty chan succeeded")
		}
		if !ch.TrySend(1) {
			t.Error("TrySend with room failed")
		}
		if ch.TrySend(2) {
			t.Error("TrySend on full chan succeeded")
		}
		if v, ok := ch.TryRecv(); !ok || v != 1 {
			t.Errorf("TryRecv = %d,%v, want 1,true", v, ok)
		}
	})
	rt.Run()
}

func TestKillReapsThreads(t *testing.T) {
	rt := newTestRT()
	started := rt.Create("parked", PrioDefault, func(th *Thread) {
		th.Park("forever")
		t.Error("killed thread resumed body")
	})
	neverRan := rt.Create("never", PrioLowest, func(th *Thread) {
		t.Error("never-dispatched thread ran during Kill")
	})
	// Dispatch once so "parked" actually parks, then kill everything.
	rt.Dispatch()
	rt.Kill()
	if started.State() != StateDone || neverRan.State() != StateDone {
		t.Fatalf("states after Kill: %v %v", started.State(), neverRan.State())
	}
	if rt.Live() != 0 {
		t.Fatalf("Live = %d after Kill", rt.Live())
	}
}

func TestDumpStateMentionsThreads(t *testing.T) {
	rt := newTestRT()
	rt.Create("alpha", 3, func(th *Thread) {})
	s := rt.DumpState()
	if len(s) == 0 {
		t.Fatal("empty dump")
	}
}

// TestQuickRoundRobinFairness: threads at one priority level that always
// yield are dispatched within 1 of each other, for any thread count and
// yield count.
func TestQuickRoundRobinFairness(t *testing.T) {
	f := func(nThreads, rounds uint8) bool {
		n := int(nThreads%6) + 2
		r := int(rounds%20) + 1
		rt := newTestRT()
		for i := 0; i < n; i++ {
			rt.Create("t", PrioDefault, func(th *Thread) {
				for k := 0; k < r; k++ {
					th.Yield()
				}
			})
		}
		rt.Run()
		min, max := 1<<30, 0
		for _, th := range rt.Threads() {
			d := th.Dispatches()
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPriorityNeverInverted: a higher-priority runnable thread is
// always dispatched before any lower-priority thread, for random priority
// assignments.
func TestQuickPriorityNeverInverted(t *testing.T) {
	f := func(prios []uint8) bool {
		if len(prios) == 0 || len(prios) > 12 {
			return true
		}
		rt := newTestRT()
		var order []int
		for _, p := range prios {
			p := int(p) % NumPriorities
			rt.Create("t", p, func(th *Thread) {
				order = append(order, p)
			})
		}
		rt.Run()
		for i := 1; i < len(order); i++ {
			if order[i] < order[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBlockUnblockConservation: random park/unblock traffic never loses
// a thread — every thread eventually finishes.
func TestQuickBlockUnblockConservation(t *testing.T) {
	f := func(seed uint8) bool {
		n := int(seed%5) + 2
		rt := newTestRT()
		threads := make([]*Thread, n)
		delivered := make([]bool, n)
		for i := 0; i < n; i++ {
			i := i
			threads[i] = rt.Create("w", PrioDefault, func(th *Thread) {
				// Park only if the predecessor's token hasn't already
				// arrived (classic lost-wakeup guard).
				if i > 0 && !delivered[i] {
					th.Park("wait for predecessor")
				}
				if i+1 < n {
					delivered[i+1] = true
					rt.Unblock(threads[i+1], false)
				}
			})
		}
		rt.Run()
		return rt.Live() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
