// Package sim is the discrete-event simulation engine that executes
// multi-node NCS programs in virtual time.
//
// Why virtual time: the paper's Tables 1-3 are wall-clock seconds on 1995
// hardware (40 MHz SPARC IPX on ATM, 33 MHz ELC on 10 Mbps Ethernet). The
// results hinge on the ratio of computation speed to communication speed,
// and that ratio cannot be reproduced in wall-clock time on modern machines.
// The engine therefore runs the *same application communication code* (built
// on internal/mts and internal/core) with computation charged as calibrated
// virtual CPU bursts and the network modelled by events (internal/netsim).
//
// Execution model: each Node is a 1995 workstation with one CPU running a
// cooperative mts.Runtime. A thread that calls Compute holds the node's CPU
// for the burst — no other thread of that node runs meanwhile — while NIC
// and network events proceed in the background. That is precisely the
// overlap mechanism of the paper (Figures 4 and 16): with one thread, a
// blocked receive idles the CPU; with two threads, the second thread's
// compute fills the gap.
//
// The engine is single-goroutine from the scheduler's point of view: events
// fire and threads execute strictly one at a time, with deterministic FIFO
// tie-breaking, so every simulation is bit-reproducible.
package sim

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/mts"
	"repro/internal/vclock"
)

// Engine owns virtual time and all simulated nodes.
type Engine struct {
	clock *vclock.VirtualClock
	queue *vclock.EventQueue
	nodes []*Node

	// maxTime aborts runaway simulations; zero means unlimited.
	maxTime vclock.Time

	// hash and fired fingerprint the timeline: every popped event folds its
	// firing time into an FNV-1a accumulator. Two runs with identical hashes
	// executed the same number of events at the same virtual instants — the
	// determinism contract virtual-mode harnesses assert against.
	hash  uint64
	fired uint64
}

// fnv64Offset/fnv64Prime are the FNV-1a parameters.
const (
	fnv64Offset = 14695981039346656037
	fnv64Prime  = 1099511628211
)

// NewEngine returns an engine at virtual time zero.
func NewEngine() *Engine {
	return &Engine{
		clock: vclock.NewVirtualClock(),
		queue: vclock.NewEventQueue(),
		hash:  fnv64Offset,
	}
}

// Clock returns the engine's virtual clock.
func (e *Engine) Clock() vclock.Clock { return e.clock }

// Now returns the current virtual time.
func (e *Engine) Now() vclock.Time { return e.clock.Now() }

// SetMaxTime bounds the simulated horizon; Run panics past it. Tests use it
// to convert infinite loops into failures.
func (e *Engine) SetMaxTime(d time.Duration) { e.maxTime = vclock.Time(d) }

// Schedule runs fn after virtual duration d (d >= 0).
func (e *Engine) Schedule(d time.Duration, fn func()) *vclock.Event {
	if d < 0 {
		panic("sim: negative schedule delay")
	}
	return e.queue.Schedule(e.clock.Now().Add(d), fn)
}

// ScheduleAt runs fn at absolute virtual time t (not before now).
func (e *Engine) ScheduleAt(t vclock.Time, fn func()) *vclock.Event {
	if t < e.clock.Now() {
		panic("sim: ScheduleAt in the past")
	}
	return e.queue.Schedule(t, fn)
}

// Cancel cancels a pending event.
func (e *Engine) Cancel(ev *vclock.Event) { e.queue.Cancel(ev) }

// Nodes returns all nodes in creation order.
func (e *Engine) Nodes() []*Node { return e.nodes }

var _ mts.Platform = (*Node)(nil)

// Node is a simulated workstation: one CPU, one cooperative thread runtime.
type Node struct {
	eng  *Engine
	id   int
	name string
	rt   *mts.Runtime

	// holder is the thread that currently owns the CPU across a Compute
	// burst; while non-nil, no other thread of this node is dispatched.
	holder *mts.Thread
	// busy accumulates total CPU busy time for utilization reporting.
	busy time.Duration
}

// NewNode adds a workstation to the simulation. The node is its runtime's
// clock, which makes the runtime virtual (mts.Platform): its timers are
// engine events and Thread.Compute charges the node's CPU.
func (e *Engine) NewNode(name string) *Node {
	n := &Node{eng: e, id: len(e.nodes), name: name}
	n.rt = mts.New(mts.Config{Name: name, Clock: n})
	e.nodes = append(e.nodes, n)
	return n
}

// ID returns the node's index in creation order.
func (n *Node) ID() int { return n.id }

// Name returns the node's label.
func (n *Node) Name() string { return n.name }

// RT returns the node's thread runtime.
func (n *Node) RT() *mts.Runtime { return n.rt }

// Engine returns the owning engine.
func (n *Node) Engine() *Engine { return n.eng }

// Now returns the engine's virtual time (mts.Platform).
func (n *Node) Now() vclock.Time { return n.eng.Now() }

// After runs fn after virtual duration d as an engine event (mts.Platform).
func (n *Node) After(d time.Duration, fn func()) { n.eng.Schedule(d, fn) }

// BusyTime returns accumulated CPU busy time.
func (n *Node) BusyTime() time.Duration { return n.busy }

// CPUActive reports whether the node's CPU currently has work: a thread is
// holding it through a compute burst or runnable threads are queued.
// Cost models use it to decide whether a poll-driven event would be
// discovered "for free" at the next context switch.
func (n *Node) CPUActive() bool {
	return n.holder != nil || n.rt.HasRunnable()
}

// Compute charges a CPU burst of duration d to the calling thread. The
// thread holds the node's CPU for the whole burst: no other thread of this
// node runs (non-preemptive user-level threading on a uniprocessor), but
// network and NIC events elsewhere in the simulation proceed. On return the
// virtual clock has advanced by d from the thread's perspective.
func (n *Node) Compute(t *mts.Thread, d time.Duration) {
	if d < 0 {
		panic("sim: negative compute duration")
	}
	if n.holder != nil {
		panic(fmt.Sprintf("sim(%s): Compute while CPU held by %q", n.name, n.holder.Name()))
	}
	if d == 0 {
		return
	}
	n.holder = t
	n.busy += d
	n.eng.Schedule(d, func() {
		n.holder = nil
		// Front placement: the burst's owner resumes before same-priority
		// peers, as a non-preempted thread would.
		n.rt.Unblock(t, true)
	})
	t.Park("compute")
}

// dispatchable reports whether the node can give its CPU to a thread now.
func (n *Node) dispatchable() bool {
	return n.holder == nil && n.rt.HasRunnable()
}

// Run executes the simulation until every thread on every node has finished.
// It panics on deadlock (live threads, nothing runnable, no pending events)
// with a full state dump, and on exceeding MaxTime.
func (e *Engine) Run() {
	for {
		progress := false
		for _, n := range e.nodes {
			for n.dispatchable() {
				n.rt.Dispatch()
				progress = true
			}
		}
		if progress {
			continue
		}
		ev := e.queue.Pop()
		if ev == nil {
			if live := e.liveThreads(); live > 0 {
				panic(fmt.Sprintf("sim: deadlock at t=%v — %d live threads, no events\n%s",
					e.Now().Seconds(), live, e.DumpState()))
			}
			return
		}
		if e.maxTime > 0 && ev.Time() > e.maxTime {
			panic(fmt.Sprintf("sim: exceeded max simulated time %v\n%s",
				time.Duration(e.maxTime), e.DumpState()))
		}
		e.recordFire(ev.Time())
		e.clock.Advance(ev.Time())
		ev.Fire()
	}
}

// recordFire folds one fired event into the timeline fingerprint.
func (e *Engine) recordFire(t vclock.Time) {
	e.fired++
	h := e.hash
	v := uint64(t)
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnv64Prime
	}
	e.hash = h
}

// TimelineHash returns the timeline fingerprint as "<hash>-<events fired>".
// Equal strings mean the two runs popped the same number of events at the
// same virtual times in the same order; a virtual-mode mesh seeded
// identically must reproduce it byte for byte.
func (e *Engine) TimelineHash() string {
	return fmt.Sprintf("%016x-%d", e.hash, e.fired)
}

// Step advances the simulation by exactly one event (after draining all
// zero-time dispatches). It reports false when the simulation is finished.
// Tools use it for single-stepping traces.
func (e *Engine) Step() bool {
	for _, n := range e.nodes {
		for n.dispatchable() {
			n.rt.Dispatch()
		}
	}
	ev := e.queue.Pop()
	if ev == nil {
		return e.liveThreads() > 0
	}
	e.recordFire(ev.Time())
	e.clock.Advance(ev.Time())
	ev.Fire()
	return true
}

func (e *Engine) liveThreads() int {
	total := 0
	for _, n := range e.nodes {
		total += n.rt.Live()
	}
	return total
}

// DumpState renders all nodes' scheduler state for deadlock diagnostics.
func (e *Engine) DumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine t=%.6fs, %d pending events\n", e.Now().Seconds(), e.queue.Len())
	for _, n := range e.nodes {
		holder := "-"
		if n.holder != nil {
			holder = n.holder.Name()
		}
		fmt.Fprintf(&b, "node %s (cpu holder=%s busy=%v):\n%s", n.name, holder, n.busy, n.rt.DumpState())
	}
	return b.String()
}
