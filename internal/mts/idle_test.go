package mts

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// These tests cover Run's idle wait: the sleep/posted hand-off between a
// dispatcher going to sleep and a poster, and the IdleTimeout watchdog.

// parkWakeLoop runs a runtime whose only thread parks over and over. cycle
// waits until the thread is on its way to Park and then wakes it through
// Post; finish lets the thread exit and waits for Run to return.
func parkWakeLoop(idle time.Duration) (cycle, finish func()) {
	rt := New(Config{Name: "idlewake", IdleTimeout: idle})
	parking := make(chan struct{})
	stop := false
	th := rt.Create("parker", PrioDefault, func(th *Thread) {
		for !stop {
			parking <- struct{}{}
			th.Park("idle wake")
		}
	})
	unblock := func() { rt.Unblock(th, false) }
	done := make(chan struct{})
	go func() { rt.Run(); close(done) }()
	cycle = func() { <-parking; rt.Post(unblock) }
	finish = func() {
		<-parking
		rt.Post(func() { stop = true; unblock() })
		<-done
	}
	return cycle, finish
}

// BenchmarkIdleWake times one park → post → wake → park cycle of an
// otherwise idle runtime. The timeout5s rows are what every fabric runs.
func BenchmarkIdleWake(b *testing.B) {
	for _, idle := range []struct {
		name string
		d    time.Duration
	}{{"timeout0", 0}, {"timeout5s", 5 * time.Second}} {
		b.Run(idle.name, func(b *testing.B) {
			cycle, finish := parkWakeLoop(idle.d)
			cycle() // the first dispatch and the goroutine start are not the wait
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
			b.StopTimer()
			finish()
		})
	}
}

func TestIdleWakeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation pin; the race detector allocates on its own")
	}
	cycle, finish := parkWakeLoop(5 * time.Second)
	defer finish()
	cycle()
	if avg := testing.AllocsPerRun(2000, cycle); avg != 0 {
		t.Fatalf("park → Post → wake allocates %v per cycle, want 0", avg)
	}
}

// TestNoLostWakeup posts at a thread that parks again as soon as it is woken,
// so the dispatcher is forever on its way to sleep while posts arrive. Open
// loop is four posters that never wait; closed loop is one that posts again
// the moment its function has run, so nobody else can make up for a wakeup it
// loses. A lost wakeup is not a deadlock report — the watchdog's wake finds
// the function queued and runs it — so what gives it away is the time: it
// costs at least an IdleTimeout, many times what the whole test takes.
func TestNoLostWakeup(t *testing.T) {
	for _, tc := range []struct {
		name           string
		posters, posts int
		closed         bool
	}{{"open", 4, 200_000, false}, {"closed", 1, 50_000, true}} {
		t.Run(tc.name, func(t *testing.T) {
			const idle = 20 * time.Second
			rt := New(Config{Name: "stress", IdleTimeout: idle})
			start := time.Now()
			runs := make([]uint8, tc.posts) // scheduler domain
			ran := 0
			parker := rt.Create("parker", PrioDefault, func(th *Thread) {
				for ran < tc.posts {
					th.Park("stress")
				}
			})
			var wg sync.WaitGroup
			for p := 0; p < tc.posters; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					ack := make(chan struct{}, 1)
					for id := p; id < tc.posts; id += tc.posters {
						id := id
						fn := func() {
							runs[id]++
							ran++
							rt.Unblock(parker, false)
							if tc.closed {
								ack <- struct{}{}
							}
						}
						rt.Post(fn)
						if tc.closed {
							<-ack
						}
					}
				}(p)
			}
			rt.Run()
			wg.Wait()
			for id, n := range runs {
				if n != 1 {
					t.Fatalf("posted function %d ran %d times", id, n)
				}
			}
			if took := time.Since(start); took >= idle {
				t.Errorf("took %v: a wakeup was lost and the watchdog made up for it", took)
			}
			if rt.sleep.Load() < 2 {
				t.Error("the dispatcher never slept: the test raced nothing")
			}
		})
	}
}

// TestPostsAcrossDrains: a foreign goroutine posts in a tight loop while two
// threads yield, park, and unblock each other, so drains begin at every
// dispatch, some with nothing posted since the last one, others with a post
// counted but not yet appended or appended but not yet counted. Every
// function must run exactly once and in post order, and no drain may leave
// one behind: a function stranded in the queue waits for the watchdog's
// wake, which takes longer than the whole test.
func TestPostsAcrossDrains(t *testing.T) {
	const idle, posts = 20 * time.Second, 100_000
	rt := New(Config{Name: "across", IdleTimeout: idle})
	start := time.Now()
	runs := make([]uint8, posts) // scheduler domain, like next
	next := 0
	var th [2]*Thread
	wakeBoth := func() {
		for _, u := range th {
			rt.Unblock(u, false)
		}
	}
	for i := range th {
		i := i
		th[i] = rt.Create(fmt.Sprintf("t%d", i), PrioDefault, func(self *Thread) {
			for k := 0; next < posts; k++ {
				self.Yield()
				rt.Unblock(th[1-i], false)
				if k%3 != i && next < posts {
					self.Park("across")
				}
			}
		})
	}
	go func() {
		for id := 0; id < posts; id++ {
			id := id
			rt.Post(func() {
				runs[id]++
				if id != next {
					t.Errorf("posted function %d ran at position %d", id, next)
				}
				next++
				wakeBoth()
			})
		}
	}()
	rt.Run()
	for id, n := range runs {
		if n != 1 {
			t.Fatalf("posted function %d ran %d times", id, n)
		}
	}
	if took := time.Since(start); took >= idle {
		t.Errorf("took %v: a drain left a posted function behind and the watchdog made up for it", took)
	}
}

// watchT is the IdleTimeout of the watchdog tests.
const watchT = 40 * time.Millisecond

func TestWatchdogReportsStuckRuntimeWithinTwoPeriods(t *testing.T) {
	rt := New(Config{Name: "wd", IdleTimeout: watchT})
	rt.Create("stuck", PrioDefault, func(th *Thread) { th.Park("never") })
	start := time.Now()
	msg := catchPanic(rt.Run)
	took := time.Since(start)
	rt.Kill()
	for _, want := range []string{"mts(wd): deadlock", "1 live threads", "none runnable after 40ms", "stuck", `"never"`} {
		if !strings.Contains(msg, want) {
			t.Fatalf("deadlock panic lacks %q:\n%s", want, msg)
		}
	}
	// A loaded machine can only delay a tick, so the lower bound is exact and
	// the upper one has slack.
	if took < watchT || took > 2*watchT+60*time.Millisecond {
		t.Fatalf("deadlock reported after %v, want within [%v, %v)", took, watchT, 2*watchT)
	}
}

func TestWatchdogSparesWokenAndBusyRuntimes(t *testing.T) {
	for name, body := range map[string]func(*Thread){
		// Asleep nearly all the time, but never in one sleep for a period.
		"woken every 15ms": func(th *Thread) {
			for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
				th.Sleep(15 * time.Millisecond)
			}
		},
		// One sleep, then no wait at all for three periods: the epoch the
		// watchdog sees stays the same, and the runtime is not asleep.
		"spinning on Yield": func(th *Thread) {
			th.Sleep(time.Millisecond)
			for start := time.Now(); time.Since(start) < 3*watchT; {
				th.Yield()
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			rt := New(Config{Name: "wd", IdleTimeout: watchT})
			rt.Create("t", PrioDefault, body)
			if msg := catchPanic(rt.Run); msg != "" {
				rt.Kill()
				t.Fatalf("watchdog reported a live runtime:\n%s", msg)
			}
		})
	}
}

// After Run returns the watchdog is gone: the handle is dropped under the
// lock a tick takes, so a tick that lost the race with Run's return — played
// here by calling it — neither looks at the runtime nor re-arms.
func TestWatchdogStopsWithRun(t *testing.T) {
	rt := New(Config{Name: "wd", IdleTimeout: watchT})
	rt.Create("t", PrioDefault, func(th *Thread) { th.Sleep(watchT + watchT/2) })
	rt.Run()
	if rt.idle != nil {
		t.Fatal("Run returned with the watchdog armed")
	}
	if rt.watched == 0 {
		t.Fatal("no tick during a Run of 1.5 periods")
	}
	// A sleep the last tick saw and nobody ended: what a live tick reports.
	stuck := rt.watched | 1
	rt.watched = stuck
	rt.sleep.Store(stuck)
	rt.watch()
	time.Sleep(2 * watchT) // a timer left armed would tick in here
	if rt.idle != nil || rt.sleep.Load() != stuck || len(rt.wake) != 0 {
		t.Fatalf("a tick after Run touched the runtime: idle %v, sleep %d (want %d), %d tokens",
			rt.idle, rt.sleep.Load(), stuck, len(rt.wake))
	}
}
