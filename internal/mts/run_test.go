package mts

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// These tests cover Run's token passing: under Run there is no scheduler
// goroutine, so each of them fails (or trips IdleTimeout's deadlock panic
// instead of hanging) if a goroutine giving up the CPU passes it on wrongly.

// catchPanic runs fn and returns what it panicked with, as text ("" if it
// returned normally).
func catchPanic(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

func TestStepDriverPanicsWhileRunActive(t *testing.T) {
	rt := newTestRT()
	var sibling *Thread
	siblingRan := false
	rt.Create("driver", PrioDefault, func(*Thread) {
		for op, step := range map[string]func(){
			"Dispatch":       func() { rt.Dispatch() },
			"DispatchThread": func() { rt.DispatchThread(sibling) },
			"Kill":           func() { rt.Kill() },
		} {
			msg := catchPanic(step)
			if !strings.Contains(msg, op+" called while Run is active") {
				t.Errorf("%s under Run: panic %q", op, msg)
			}
		}
		if sibling.State() != StateRunnable || siblingRan {
			t.Errorf("refused step still touched the sibling: state %v, ran %v", sibling.State(), siblingRan)
		}
	})
	sibling = rt.Create("sibling", PrioDefault, func(*Thread) { siblingRan = true })
	rt.Run()
	if !siblingRan {
		t.Fatal("sibling never ran after the refused steps")
	}
}

func TestRunAgainAfterRun(t *testing.T) {
	rt := newTestRT()
	var ran []string
	rt.Create("first", PrioDefault, func(th *Thread) {
		th.Sleep(time.Millisecond) // a sleep under the first Run's watchdog; the second Run starts its own
		ran = append(ran, "first")
	})
	rt.Run()
	rt.Create("second", PrioDefault, func(th *Thread) {
		th.Yield()
		th.Sleep(time.Millisecond)
		ran = append(ran, "second")
	})
	rt.Create("third", PrioDefault, func(*Thread) { ran = append(ran, "third") })
	rt.Run()
	if got := strings.Join(ran, ","); got != "first,third,second" {
		t.Fatalf("ran %q across two Runs", got)
	}
	if rt.Live() != 0 || rt.Current() != nil {
		t.Fatalf("after second Run: live %d, current %v", rt.Live(), rt.Current())
	}
}

// A thread exits while its sibling is parked: the retiring goroutine is the
// one left holding the CPU, so it must wait for the Post and hand the CPU to
// the sibling's goroutine.
func TestExitWhileSiblingParkedThenPost(t *testing.T) {
	rt := newTestRT()
	woke := false
	exiting := make(chan struct{})
	sibling := rt.Create("sibling", PrioSystem, func(th *Thread) {
		th.Park("for the post")
		woke = true
	})
	rt.Create("exiter", PrioDefault, func(*Thread) { close(exiting) })
	go func() {
		<-exiting
		// Best effort to arrive after the exiter's goroutine went idle; the
		// wakeup must work either way.
		time.Sleep(5 * time.Millisecond)
		rt.Post(func() { rt.Unblock(sibling, false) })
	}()
	rt.Run()
	if !woke || sibling.Dispatches() != 2 || rt.Live() != 0 {
		t.Fatalf("woke %v, sibling dispatches %d, live %d", woke, sibling.Dispatches(), rt.Live())
	}
}

// A lone thread that parks is its own dispatcher; being woken is still a
// dispatch, with the hook and the counters to show for it.
func TestLoneThreadSelfResumeIsADispatch(t *testing.T) {
	wakers := map[string]func(rt *Runtime, wake func(), parking <-chan struct{}){
		"Post": func(rt *Runtime, wake func(), parking <-chan struct{}) {
			go func() { <-parking; rt.Post(wake) }()
		},
		"After": func(rt *Runtime, wake func(), _ <-chan struct{}) {
			rt.After(time.Millisecond, wake)
		},
	}
	for name, arrange := range wakers {
		t.Run(name, func(t *testing.T) {
			hooked := 0
			rt := New(Config{Name: name, IdleTimeout: 5 * time.Second, OnSwitch: func(*Thread) { hooked++ }})
			parking := make(chan struct{})
			var th *Thread
			wake := func() {
				if rt.Current() != nil {
					t.Errorf("wake function ran with thread %q current", rt.Current().Name())
				}
				if !rt.Unblock(th, false) {
					t.Error("wake function ran before the thread parked")
				}
			}
			resumedAs := (*Thread)(nil)
			th = rt.Create("lone", PrioDefault, func(th *Thread) {
				arrange(rt, wake, parking)
				// The thread holds the CPU from here until it parks, so a
				// function posted after this signal runs once it has.
				close(parking)
				th.Park("lone wait")
				resumedAs = rt.Current()
			})
			rt.Run()
			if resumedAs != th {
				t.Fatalf("Current() after the self-resume = %v", resumedAs)
			}
			if hooked != 2 || th.Dispatches() != 2 || rt.Switches() != 2 {
				t.Fatalf("OnSwitch %d, Dispatches %d, Switches %d; want 2 each", hooked, th.Dispatches(), rt.Switches())
			}
		})
	}
}

// Deadlock with one thread already gone: whichever goroutine was left idle —
// a parked thread's or the exited thread's — the panic comes out of Run on
// the caller's goroutine with the state dump, and Kill reaps the rest.
func TestDeadlockReportedOnRunCaller(t *testing.T) {
	for name, exiterPrio := range map[string]int{
		"parked thread idles": PrioSystem, // exits first; the last to park holds the CPU
		"exited thread idles": PrioLowest, // exits last; its goroutine holds the CPU
	} {
		t.Run(name, func(t *testing.T) {
			rt := New(Config{Name: "dl2", IdleTimeout: 30 * time.Millisecond})
			rt.Create("exiter", exiterPrio, func(*Thread) {})
			a := rt.Create("stuck-a", PrioDefault, func(th *Thread) { th.Park("never a") })
			b := rt.Create("stuck-b", PrioDefault, func(th *Thread) { th.Park("never b") })
			msg := catchPanic(rt.Run)
			for _, want := range []string{"mts(dl2): deadlock", "2 live threads", "stuck-a", `"never a"`, "stuck-b", `"never b"`, "exiter", "done"} {
				if !strings.Contains(msg, want) {
					t.Fatalf("deadlock panic lacks %q:\n%s", want, msg)
				}
			}
			rt.Kill() // returns only once rt.wg has drained
			if rt.Live() != 0 || a.State() != StateDone || b.State() != StateDone {
				t.Fatalf("after Kill: live %d, states %v %v", rt.Live(), a.State(), b.State())
			}
		})
	}
}

// TestQuickForeignWakeupsKeepOrder: threads at random priorities yield and
// park at random while foreign goroutines wake the parked ones through Post.
// At every dispatch no higher-priority thread is runnable and
// the dispatched thread is the longest-waiting of its level; every posted
// function runs exactly once, with no thread current.
func TestQuickForeignWakeupsKeepOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, steps := 2+rng.Intn(6), 1+rng.Intn(12)

		ok := true
		fail := func(format string, args ...any) {
			ok = false
			t.Errorf("seed %d: "+format, append([]any{seed}, args...)...)
		}
		var rt *Runtime
		// readyAt orders the moments threads became runnable; like the
		// rest of the bookkeeping it is touched in the scheduler domain only.
		readyAt, clock := make([]int, n), 0
		stamp := func(th *Thread) { clock++; readyAt[th.ID()] = clock }
		rt = New(Config{Name: "quick", IdleTimeout: 5 * time.Second, OnSwitch: func(th *Thread) {
			for p := 0; p < th.prio; p++ {
				if !rt.ready[p].Empty() {
					fail("dispatched %q (prio %d) with prio %d runnable", th.name, th.prio, p)
				}
			}
			for _, u := range rt.threads {
				if u != th && u.prio == th.prio && u.state == StateRunnable && readyAt[u.id] < readyAt[th.id] {
					fail("dispatched %q ahead of longer-waiting %q", th.name, u.name)
				}
			}
		}})

		var posted []int // runs per posted function
		post := func(fn func()) func() {
			id := len(posted)
			posted = append(posted, 0)
			wrapped := func() {
				posted[id]++
				if rt.Current() != nil {
					fail("posted function %d ran with %q current", id, rt.Current().name)
				}
				fn()
			}
			return func() { rt.Post(wrapped) }
		}

		// A parking thread queues its wakeup order here; the wakers carry
		// them out from foreign goroutines. Sized to the total park count so
		// a thread never blocks on it while holding the CPU.
		orders := make(chan [2]func(), n*steps)
		for i := 0; i < n; i++ {
			// Each step yields (one in three) or parks to be woken
			// through Post.
			const yield, kinds = 0, 3
			script := make([]int, steps)
			for k := range script {
				script[k] = rng.Intn(kinds)
			}
			th := rt.Create(fmt.Sprintf("t%d", i), rng.Intn(3)*4, func(th *Thread) {
				for _, step := range script {
					if step == yield {
						stamp(th)
						th.Yield()
						continue
					}
					// An idle function and the wakeup, posted back to back
					// so the first cannot be left behind when the second
					// lets the run finish.
					orders <- [2]func(){
						post(func() {}),
						post(func() {
							if !rt.Unblock(th, false) {
								fail("wakeup for %q ran before it parked", th.name)
							}
							stamp(th)
						}),
					}
					th.Park("quick wait")
				}
			})
			stamp(th)
		}
		var wakers sync.WaitGroup
		for w := 0; w < 2; w++ {
			wakers.Add(1)
			go func() {
				defer wakers.Done()
				for o := range orders {
					o[0]()
					o[1]()
				}
			}()
		}
		rt.Run()
		close(orders)
		wakers.Wait()

		for id, runs := range posted {
			if runs != 1 {
				fail("posted function %d ran %d times", id, runs)
			}
		}
		return ok && rt.Live() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
