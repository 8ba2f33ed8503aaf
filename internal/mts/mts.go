// Package mts implements NCS_MTS, the multithreaded subsystem of the NYNET
// Communication System (paper §4.1).
//
// The paper builds NCS_MTS on QuickThreads, a user-space thread toolkit: all
// threads live inside one conventional process, the host OS knows nothing
// about them, and scheduling is non-preemptive — a thread runs until it
// blocks or yields at an NCS call. NCS_MTS adds what QuickThreads lacks:
// scheduling (16 priority levels, round-robin within a level, doubly-linked
// ready rings and blocked queue, Figure 9) and synchronization.
//
// This package reproduces those semantics on top of goroutines. Each Thread
// is carried by a goroutine, but a Runtime has a single CPU token: exactly
// one thread executes at any instant, context switches happen only at
// explicit calls (Yield, Park, Exit, and the messaging calls layered above),
// and the dispatch order is the paper's deterministic priority + round-robin.
// Go's preemptive parallelism is deliberately not inherited — the whole
// point of the paper's overlap argument is the behaviour of cooperative
// threads on a single 1995-era processor.
//
// As in QuickThreads, a switch is a call made by the thread that is giving
// up the processor, not a trip through a scheduler of its own. Whoever holds
// the token owns all scheduler state (ready rings, blocked queue, thread
// fields) and passes ownership on with the token; each hand-off is a channel
// operation, which is the happens-before edge every scheduler-domain access
// relies on.
//
// A Runtime can be driven two ways:
//
//   - Run(): the real-time mode used by examples, real-mode procs and tests.
//     Run dispatches the first thread and then only waits for the last one to
//     finish; there is no scheduler goroutine. The goroutine whose thread
//     parks, yields or exits runs the dispatcher itself: it runs the pending
//     Post functions, picks the next thread, and either carries on (it
//     picked its own thread: no goroutine hand-off), signals the chosen
//     thread's goroutine and waits for its own turn (one hand-off), or — with
//     nothing runnable — goes to sleep right there, so an external completion
//     wakes the goroutine most likely to run next. A sleeper waits on one
//     thing, the capacity-1 wake token, in a plain receive; Post queues its
//     function on the runtime's one external queue, never waits, and touches
//     the token only if the runtime is asleep (a busy one costs it no channel
//     operation), and the IdleTimeout watchdog, one timer per Run, is the
//     token's only other sender.
//   - Dispatch()/DispatchThread(): single-step primitives used by the
//     discrete-event simulation engine (internal/sim), which interleaves
//     thread execution with virtual-time network events. The caller holds the
//     token between steps; a parking thread hands it straight back.
//
// The two drivers share the switch accounting and must not be mixed on one
// Runtime at the same time.
package mts

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/list"
	"repro/internal/vclock"
)

// NumPriorities is the number of scheduler priority levels. The paper's
// current implementation has N = 16.
const NumPriorities = 16

// Priority levels used by convention across the repo. Lower value = higher
// priority. System threads (send/receive/flow/error control) outrank user
// compute threads so a completed transfer is noticed at the next switch.
const (
	PrioSystem  = 0
	PrioFlow    = 1
	PrioDefault = 8
	PrioLowest  = NumPriorities - 1
)

// State is a thread's scheduler state. The paper names three states
// (blocked, runnable, running); New and Done bracket the lifecycle.
type State uint8

// Thread states.
const (
	StateNew State = iota
	StateRunnable
	StateRunning
	StateBlocked
	StateDone
)

func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// ThreadID identifies a thread within its Runtime. IDs are dense and start
// at 0 in creation order, matching the paper's tid handles.
type ThreadID int

// ErrKilled is the panic payload used to unwind a killed thread's goroutine.
type killedSignal struct{}

// Thread is a single NCS_MTS thread. All methods must be called from the
// thread's own body (they operate on "the current thread").
type Thread struct {
	id    ThreadID
	name  string
	prio  int
	state State
	rt    *Runtime

	node list.Node // link into ready ring or blocked queue

	gate    chan struct{} // resume signal; buffered(1)
	body    func(*Thread)
	spawned bool
	killed  bool

	blockReason string
	// dispatches counts how many times the scheduler gave this thread the
	// CPU; the fairness property test uses it.
	dispatches int
	// joiners are threads parked in Join on this thread; woken at exit.
	joiners []*Thread
}

// ID returns the thread's identifier.
func (t *Thread) ID() ThreadID { return t.id }

// Name returns the thread's debug name.
func (t *Thread) Name() string { return t.name }

// Priority returns the thread's scheduling priority (0 = highest).
func (t *Thread) Priority() int { return t.prio }

// State returns the thread's current scheduler state.
func (t *Thread) State() State { return t.state }

// Runtime returns the owning runtime.
func (t *Thread) Runtime() *Runtime { return t.rt }

// Dispatches returns how many times this thread has been given the CPU.
func (t *Thread) Dispatches() int { return t.dispatches }

// BlockReason returns the reason string of the current/last Park.
func (t *Thread) BlockReason() string { return t.blockReason }

// Config parameterizes a Runtime.
type Config struct {
	// Name labels the runtime in panics and dumps (e.g. "node3").
	Name string
	// Clock supplies time; defaults to a RealClock.
	Clock vclock.Clock
	// IdleTimeout bounds how long Run sleeps with every thread blocked and
	// nothing posted. A watchdog looks once per IdleTimeout and reports a
	// deadlock when it finds the sleep it saw the period before: after at
	// least IdleTimeout, before twice that. Zero means wait forever. Tests and
	// examples set it so a lost wakeup fails loudly instead of hanging.
	IdleTimeout time.Duration
	// OnSwitch, if set, is invoked at every context switch with the thread
	// being switched in. The trace package uses it to build timelines.
	OnSwitch func(t *Thread)
}

// Runtime is the per-process scheduler: the paper's "run-time system" that
// realizes threads within a conventional process.
type Runtime struct {
	name  string
	clock vclock.Clock

	ready   [NumPriorities]list.List
	blocked list.List

	threads []*Thread
	live    int // threads not yet Done
	cur     *Thread

	// running is set while Run is active. Under Run a goroutine giving up
	// the CPU runs the dispatcher itself; otherwise it hands the token back
	// to the Dispatch caller through parked.
	running atomic.Bool
	parked  chan struct{} // step mode: thread -> Dispatch caller hand-back
	// done carries Run's outcome from the goroutine that observed it to
	// Run's caller: "" when the last thread retired, else the deadlock report.
	done chan string

	onSwitch func(t *Thread)

	// postQ is the external queue: Post appends under postMu, the dispatcher
	// swaps it out whole and runs it.
	postMu    sync.Mutex
	postQ     []func()
	postSpare []func() // recycled drain buffer, so steady state allocates nothing

	// The idle hand-off. posted counts what Post queued; seen (scheduler
	// domain) is its value read before the last swap of postQ, so every
	// function it counts has run or is running. sleep is the
	// dispatcher's sleep epoch, odd while it sleeps: it makes sleep odd, then
	// reads posted; a poster bumps posted, then reads sleep — all sync/atomic,
	// so one sees the other. Whoever else makes an odd sleep even owes wake a
	// token (true: the watchdog), taken before the next sleep: no send blocks.
	posted atomic.Uint32
	seen   uint32
	sleep  atomic.Uint64
	wake   chan bool

	// The IdleTimeout watchdog: idle is non-nil while Run is active, watched
	// the sleep epoch its last tick saw; idleMu has a tick wait for the handle.
	idleTimeout time.Duration
	idleMu      sync.Mutex
	idle        *time.Timer
	watched     uint64

	switches int

	// wg tracks thread goroutines so Kill can wait for clean unwinding.
	wg sync.WaitGroup
}

// New creates a Runtime.
func New(cfg Config) *Runtime {
	if cfg.Clock == nil {
		cfg.Clock = vclock.NewRealClock()
	}
	rt := &Runtime{
		name:        cfg.Name,
		clock:       cfg.Clock,
		parked:      make(chan struct{}, 1),
		done:        make(chan string, 1),
		wake:        make(chan bool, 1),
		idleTimeout: cfg.IdleTimeout,
		onSwitch:    cfg.OnSwitch,
	}
	return rt
}

// Name returns the runtime's label.
func (rt *Runtime) Name() string { return rt.name }

// Clock returns the runtime's clock.
func (rt *Runtime) Clock() vclock.Clock { return rt.clock }

// Now is shorthand for Clock().Now().
func (rt *Runtime) Now() vclock.Time { return rt.clock.Now() }

// Switches returns the number of context switches performed.
func (rt *Runtime) Switches() int { return rt.switches }

// Live returns the number of threads that have not finished.
func (rt *Runtime) Live() int { return rt.live }

// Current returns the currently running thread, or nil between dispatches
// (while Post functions run, or the step driver holds the CPU).
func (rt *Runtime) Current() *Thread { return rt.cur }

// Threads returns all threads ever created, in creation order.
func (rt *Runtime) Threads() []*Thread { return rt.threads }

// Thread returns the thread with the given id, or nil.
func (rt *Runtime) Thread(id ThreadID) *Thread {
	if int(id) < 0 || int(id) >= len(rt.threads) {
		return nil
	}
	return rt.threads[id]
}

// Create registers a new thread with the given priority; the paper's
// NCS_t_create. The body starts executing at the thread's first dispatch.
// Create may be called before Run/Start or from a running thread.
func (rt *Runtime) Create(name string, prio int, body func(*Thread)) *Thread {
	if prio < 0 || prio >= NumPriorities {
		panic(fmt.Sprintf("mts: priority %d out of range [0,%d)", prio, NumPriorities))
	}
	t := &Thread{
		id:    ThreadID(len(rt.threads)),
		name:  name,
		prio:  prio,
		state: StateRunnable,
		rt:    rt,
		gate:  make(chan struct{}, 1),
		body:  body,
	}
	t.node.Value = t
	rt.threads = append(rt.threads, t)
	rt.live++
	rt.ready[prio].PushBack(&t.node)
	return t
}

// HasRunnable reports whether any thread is ready to run.
func (rt *Runtime) HasRunnable() bool {
	for i := range rt.ready {
		if !rt.ready[i].Empty() {
			return true
		}
	}
	return false
}

// nextRunnable removes and returns the next thread by priority + RR order.
func (rt *Runtime) nextRunnable() *Thread {
	for i := range rt.ready {
		if n := rt.ready[i].PopFront(); n != nil {
			return n.Value.(*Thread)
		}
	}
	return nil
}

// Dispatch runs the next runnable thread until it parks, yields, or exits.
// It returns false if no thread was runnable. It is the step driver: the
// caller (the sim engine) holds the CPU token between calls, and it panics
// if Run is driving the runtime.
func (rt *Runtime) Dispatch() bool {
	rt.mustBeStepping("Dispatch")
	t := rt.nextRunnable()
	if t == nil {
		return false
	}
	rt.runThread(t)
	return true
}

// DispatchThread forces a specific runnable thread to run next, bypassing
// queue order. The sim engine uses it to return the CPU to a thread that
// "held" it across a modelled compute burst (non-preemptive semantics).
// It panics if the thread is not runnable.
func (rt *Runtime) DispatchThread(t *Thread) {
	rt.mustBeStepping("DispatchThread")
	if t.state != StateRunnable {
		panic(fmt.Sprintf("mts(%s): DispatchThread of %s thread %q", rt.name, t.state, t.name))
	}
	t.node.Remove()
	rt.runThread(t)
}

// mustBeStepping rejects a second driver on the CPU token: a step (or a Kill)
// while Run's threads are dispatching each other would edit the ready rings
// under them.
func (rt *Runtime) mustBeStepping(op string) {
	if rt.running.Load() {
		panic(fmt.Sprintf("mts(%s): %s called while Run is active", rt.name, op))
	}
}

// runThread is one step of the step driver: t runs until it gives the CPU up.
func (rt *Runtime) runThread(t *Thread) {
	rt.switchIn(t)
	rt.resume(t)
	<-rt.parked
}

// switchIn accounts for a dispatch of t. Every dispatch under either driver
// goes through here, including a thread resuming itself.
func (rt *Runtime) switchIn(t *Thread) {
	t.state = StateRunning
	t.dispatches++
	rt.switches++
	rt.cur = t
	if rt.onSwitch != nil {
		rt.onSwitch(t)
	}
}

// resume passes the CPU token to t's goroutine, starting it at the thread's
// first dispatch. The caller must not touch scheduler state afterwards.
func (rt *Runtime) resume(t *Thread) {
	if t.spawned {
		t.gate <- struct{}{}
		return
	}
	t.spawned = true
	rt.wg.Add(1)
	go t.main()
}

// main is the thread's goroutine, started holding the CPU token.
func (t *Thread) main() {
	defer t.rt.wg.Done()
	t.runBody()
	t.retire()
	t.rt.relinquish(nil)
}

// runBody runs the thread body; a Kill unwinds it cleanly to here.
func (t *Thread) runBody() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killedSignal); !ok {
				panic(r)
			}
		}
	}()
	t.body(t)
}

// retire marks the thread finished and wakes any joiners. It runs in the
// thread's goroutine while it still holds the CPU, so touching scheduler
// state is safe.
func (t *Thread) retire() {
	t.state = StateDone
	t.rt.live--
	for _, j := range t.joiners {
		t.rt.Unblock(j, false)
	}
	t.joiners = nil
}

// relinquish is called by a goroutine whose thread has just parked or
// yielded (self, already on its queue) or exited (self == nil). Under the
// step driver it hands the CPU token back to the Dispatch caller. Under Run
// the goroutine becomes the dispatcher; relinquish then reports whether it
// dispatched self again, in which case the caller still holds the token and
// carries on instead of waiting at its gate.
func (rt *Runtime) relinquish(self *Thread) bool {
	rt.cur = nil
	if !rt.running.Load() {
		rt.parked <- struct{}{}
		return false
	}
	return rt.dispatch(self)
}

// dispatch is Run's scheduler, executed by whichever goroutine holds the CPU
// token with no thread running: self's goroutine after self parked or
// yielded, a retired thread's goroutine, or Run's caller before the first
// thread (the latter two pass nil). It runs pending external completions
// first, so I/O wakeups take effect at the earliest switch point, then
// dispatches the next thread by priority + round-robin. It returns true if
// that is self, which then simply continues. Otherwise the token has left
// this goroutine when it returns: to another thread's goroutine, or — with
// the outcome on rt.done — to Run's caller, because the last thread retired
// or because the watchdog found nothing runnable for a whole IdleTimeout.
func (rt *Runtime) dispatch(self *Thread) bool {
	for rt.live > 0 {
		rt.drainExternal()
		if t := rt.nextRunnable(); t != nil {
			rt.switchIn(t)
			if t == self {
				return true
			}
			rt.resume(t)
			return false
		}
		// Nothing runnable: wait for the outside world on this goroutine.
		if !rt.waitExternal() {
			rt.done <- fmt.Sprintf("mts(%s): deadlock — %d live threads, none runnable after %v\n%s",
				rt.name, rt.live, rt.idleTimeout, rt.DumpState())
			return false
		}
	}
	rt.done <- ""
	return false
}

// park gives up the CPU with the thread's state transition already applied
// and returns when the thread is dispatched again.
func (t *Thread) park() {
	if t.rt.relinquish(t) {
		return
	}
	<-t.gate
	if t.killed {
		panic(killedSignal{})
	}
}

// Yield moves the current thread to the back of its priority ring and
// switches to the next runnable thread (round-robin step).
func (t *Thread) Yield() {
	t.mustBeCurrent("Yield")
	t.state = StateRunnable
	t.rt.ready[t.prio].PushBack(&t.node)
	t.park()
}

// Park blocks the current thread on the blocked queue with a reason for
// debugging ("recv msg", "send done", ...). Another thread or an external
// event must Unblock it. This is the paper's blocking mechanism that
// "synchronizes a thread with some event".
func (t *Thread) Park(reason string) {
	t.mustBeCurrent("Park")
	t.state = StateBlocked
	t.blockReason = reason
	t.rt.blocked.PushBack(&t.node)
	t.park()
}

// Unblock moves a blocked thread to its ready ring; the paper's
// NCS_unblock. front=true inserts at the head of the ring, used when the
// thread must regain the CPU before its peers (e.g. after a modelled compute
// burst). Unblocking a non-blocked thread is a no-op and returns false, so
// racy double wakeups are harmless.
func (rt *Runtime) Unblock(t *Thread, front bool) bool {
	if t.state != StateBlocked {
		return false
	}
	t.node.Remove()
	t.state = StateRunnable
	t.blockReason = ""
	if front {
		rt.ready[t.prio].PushFront(&t.node)
	} else {
		rt.ready[t.prio].PushBack(&t.node)
	}
	return true
}

// Post schedules fn to run in the scheduler domain. It is the one Runtime
// entry point that is safe to call from foreign goroutines (carrier readers,
// lane engines, timers). Under Run, fn executes between dispatches on the
// goroutine that holds the CPU token at that moment: the goroutine of the
// thread that just parked, yielded or exited, before it picks the next
// thread — with Current() == nil, one function at a time, in Post order. If
// every thread is blocked, that goroutine is asleep and Post wakes it.
//
// Post never blocks: fn joins an unbounded queue. A producer may hold a lock
// a scheduler-domain thread also takes (an NCS lane engine holds its lane's),
// and one that waited for queue space while that thread held the CPU would
// deadlock the process. What bounds the queue is its producers: a carrier
// posts one drain per batch of arrivals and waits at its own cap
// (transport.Inbox), a lane one drain at a time. In sim mode, the engine
// never needs Post because events already fire in its goroutine.
func (rt *Runtime) Post(fn func()) {
	rt.postMu.Lock()
	rt.postQ = append(rt.postQ, fn)
	rt.postMu.Unlock()
	// The poster's half of the idle hand-off: bump posted, then read sleep,
	// and wake the dispatcher if it sleeps.
	rt.posted.Add(1)
	if s := rt.sleep.Load(); s&1 == 1 && rt.sleep.CompareAndSwap(s, s+1) {
		rt.wake <- false
	}
}

// After runs fn in the scheduler domain once d of real time has elapsed: a
// Go timer Posts it, so it executes where a Post function does. Only
// meaningful under a real clock; the sim engine provides virtual-time timers
// instead.
func (rt *Runtime) After(d time.Duration, fn func()) {
	time.AfterFunc(d, func() { rt.Post(fn) })
}

// Sleep blocks the current thread for d of real time. Sim-mode code should
// use the engine's virtual Sleep instead.
func (t *Thread) Sleep(d time.Duration) {
	t.mustBeCurrent("Sleep")
	rt := t.rt
	rt.After(d, func() { rt.Unblock(t, false) })
	t.Park("sleep")
}

// Run executes threads until all have finished: the paper's NCS_start. It
// dispatches the first thread and then blocks while the threads' own
// goroutines pass the CPU among themselves (see dispatch), running
// externally Posted wakeups between dispatches and waiting for them when no
// thread is runnable. It panics, on the caller's goroutine, on deadlock
// (blocked threads, no runnable work, and no external event for a whole
// IdleTimeout); the blocked threads are then parked at their gates, where
// Kill can reap them.
func (rt *Runtime) Run() {
	if !rt.running.CompareAndSwap(false, true) {
		panic("mts: Run called reentrantly")
	}
	defer rt.running.Store(false)
	if rt.idleTimeout > 0 {
		rt.idleMu.Lock()
		rt.idle = time.AfterFunc(rt.idleTimeout, rt.watch)
		rt.idleMu.Unlock()
		defer rt.stopWatch()
	}
	rt.dispatch(nil)
	if report := <-rt.done; report != "" {
		panic(report)
	}
}

// waitExternal puts the dispatcher to sleep until a poster or the watchdog
// wakes it. It returns false if the watchdog did and nothing is queued: a
// deadlock. A wake that finds work queued never is one, whatever was decided.
func (rt *Runtime) waitExternal() bool {
	s := rt.sleep.Add(1)
	if rt.posted.Load() != rt.seen {
		// Posted since the last drain began: no sleep. If someone has ended
		// it already, the token they owe is taken here, not left behind.
		if !rt.sleep.CompareAndSwap(s, s+1) {
			<-rt.wake
		}
		return true
	}
	return !<-rt.wake || rt.posted.Load() != rt.seen
}

// watch is the watchdog's tick, one per IdleTimeout while Run is active. It
// declares a deadlock when the dispatcher is still in the sleep the previous
// tick saw, by ending that sleep itself, which no poster can then also do.
func (rt *Runtime) watch() {
	rt.idleMu.Lock()
	defer rt.idleMu.Unlock()
	if rt.idle == nil {
		return // Run returned while this tick was on its way
	}
	s := rt.sleep.Load()
	if s&1 == 1 && s == rt.watched && rt.sleep.CompareAndSwap(s, s+1) {
		rt.wake <- true
	}
	rt.watched = s
	rt.idle.Reset(rt.idleTimeout)
}

// stopWatch ends the watchdog; a tick already on its way finds idle nil.
func (rt *Runtime) stopWatch() {
	rt.idleMu.Lock()
	rt.idle.Stop()
	rt.idle = nil
	rt.idleMu.Unlock()
}

// drainExternal runs what Post has queued, including what the functions it
// runs post. It takes postMu only when posted has moved since the last swap:
// every poster counted in the value read before a swap appended before
// bumping, so that swap took its function, and seen records the value. A
// dispatch with nothing posted since then locks nothing, and neither does the
// re-check after a batch. A function appended but not yet counted is found by
// the next drain its bump causes, or, if the dispatcher goes to sleep first,
// by the sleep hand-off (waitExternal compares the same two values). A bump
// whose function an earlier swap already took costs one empty swap.
func (rt *Runtime) drainExternal() {
	for {
		v := rt.posted.Load()
		if v == rt.seen {
			return
		}
		rt.postMu.Lock()
		q := rt.postQ
		rt.postQ = rt.postSpare[:0]
		rt.postMu.Unlock()
		rt.seen = v
		for _, fn := range q {
			fn()
		}
		clear(q)
		rt.postSpare = q
	}
}

// Kill terminates all unfinished threads by unwinding their goroutines, then
// waits for them to exit. It must be called with no driver active — by the
// step driver's goroutine between steps, or after Run has returned or
// panicked. It exists so tests and tools can tear down a runtime whose
// threads are parked forever.
func (rt *Runtime) Kill() {
	rt.mustBeStepping("Kill")
	for _, t := range rt.threads {
		if t.state == StateDone || !t.spawned {
			if t.state != StateDone {
				// Never ran: just retire it.
				t.node.Remove()
				t.state = StateDone
				rt.live--
			}
			continue
		}
		if t.state == StateRunning {
			panic("mts: Kill with a thread running")
		}
		t.node.Remove()
		t.killed = true
		t.gate <- struct{}{}
		<-rt.parked
	}
	rt.wg.Wait()
}

// DumpState renders scheduler state for deadlock diagnostics.
func (rt *Runtime) DumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "runtime %q: %d threads, %d live, %d switches\n", rt.name, len(rt.threads), rt.live, rt.switches)
	ts := append([]*Thread(nil), rt.threads...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].id < ts[j].id })
	for _, t := range ts {
		fmt.Fprintf(&b, "  t%-3d %-20s prio=%-2d %-8s", t.id, t.name, t.prio, t.state)
		if t.state == StateBlocked {
			fmt.Fprintf(&b, " on %q", t.blockReason)
		}
		fmt.Fprintf(&b, " dispatches=%d\n", t.dispatches)
	}
	return b.String()
}

func (t *Thread) mustBeCurrent(op string) {
	if t.rt.cur != t {
		panic(fmt.Sprintf("mts(%s): %s called from outside thread %q (current=%v)",
			t.rt.name, op, t.name, t.rt.cur))
	}
}
