// Package ring provides the multi-producer single-consumer hand-off queue
// that feeds NCS lane engines. Application threads (and the transport's
// delivery goroutines) push items from arbitrary goroutines; exactly one
// lane engine drains. The design goal is the same as the rest of the NCS
// hot path: zero steady-state allocation and no producer-side blocking —
// a push is one short mutex hold plus, at most, one non-blocking channel
// send to wake a sleeping consumer.
//
// Consuming is a role, and only its home is the engine goroutine. While the
// engine sleeps on an empty ring the role is free, and a producer may take
// it with ClaimOrPush instead of waking the engine: it keeps its item,
// consumes that one item itself, and ends its turn with Release, which puts
// the ring back to asleep if it is still empty and otherwise wakes the
// engine for what was pushed meanwhile. A claimant never drains, so Drain's
// swap buffers stay the engine's alone; the sleeping flag is the role's
// free bit, and q.mu (or the wake channel) orders every transfer of it, so
// successive consumers are ordered by happens-before.
package ring

import "sync"

// MPSC is a multi-producer single-consumer queue of T. Producers call Push
// or ClaimOrPush from any goroutine; the engine alternates Drain and Sleep.
// Two backing slices are swapped between producer and consumer so
// steady-state operation reuses their capacity and allocates nothing.
type MPSC[T any] struct {
	mu    sync.Mutex
	buf   []T // producer side: pending items
	spare []T // consumer side: recycled after each Drain

	// pushed counts the items ever queued (under mu, so a push costs no
	// atomic of its own); an item a claimant keeps is not one of them.
	pushed int64

	// sleeping: the engine is parked in Sleep, the ring is empty and nobody
	// holds the consumer role. The producer that clears it owes the engine
	// one wake token, unless it is a claimant whose Release sets the flag
	// again.
	sleeping bool
	// stopped: Sleep has returned false. The role is never free again, so
	// late items stay in the ring.
	stopped bool

	// wake has capacity 1 and receives exactly one value per clearing of
	// sleeping that Release does not undo, so the send can never block.
	wake chan struct{}
}

// New returns an empty queue.
func New[T any]() *MPSC[T] {
	return &MPSC[T]{wake: make(chan struct{}, 1)}
}

// Push appends v. If the consumer is asleep it is woken exactly once.
func (q *MPSC[T]) Push(v T) {
	q.mu.Lock()
	q.buf = append(q.buf, v)
	q.pushed++
	doWake := q.sleeping
	q.sleeping = false
	q.mu.Unlock()
	if doWake {
		q.wake <- struct{}{}
	}
}

// ClaimOrPush takes the consumer role if the engine is asleep — v is not
// queued: the caller consumes it and then calls Release — and otherwise
// appends v behind the active consumer, which will find it without being
// woken. A claimant that cannot consume v after all pushes it and releases.
func (q *MPSC[T]) ClaimOrPush(v T) (claimed bool) {
	q.mu.Lock()
	if claimed = q.sleeping; claimed {
		q.sleeping = false
	} else {
		q.buf = append(q.buf, v)
		q.pushed++
	}
	q.mu.Unlock()
	return claimed
}

// Release ends a claimant's turn: the ring goes back to asleep if it is
// still empty, else the engine is woken for what was pushed meanwhile. After
// a stop the engine is woken regardless — it waits in Sleep for the role to
// come home before it reports the stop — and pending items stay in the ring.
func (q *MPSC[T]) Release() {
	q.mu.Lock()
	asleep := len(q.buf) == 0 && !q.stopped
	q.sleeping = asleep
	q.mu.Unlock()
	if !asleep {
		q.wake <- struct{}{}
	}
}

// Drain returns all pending items, or nil if the queue is empty. The
// returned slice is owned by the consumer until its next Drain call (the
// two backing slices are swapped, not copied). Consumer-only.
func (q *MPSC[T]) Drain() []T {
	q.mu.Lock()
	items := q.buf
	q.buf = q.spare[:0]
	q.mu.Unlock()
	if len(items) == 0 {
		q.spare = items
		return nil
	}
	q.spare = items
	return items
}

// Sleep blocks until a producer pushes or stop is closed. It returns true
// if woken by a push or by a claimant's Release (or if items raced in before
// sleeping), false if stop fired or had fired before. Consumer-only. A
// spurious true (empty Drain afterwards) is possible and harmless.
func (q *MPSC[T]) Sleep(stop <-chan struct{}) bool {
	q.mu.Lock()
	if len(q.buf) > 0 {
		q.mu.Unlock()
		return true
	}
	if q.stopped {
		q.mu.Unlock()
		return false
	}
	q.sleeping = true
	q.mu.Unlock()
	select {
	case <-q.wake:
		return true
	case <-stop:
		q.mu.Lock()
		taken := !q.sleeping
		q.sleeping = false
		q.stopped = true
		q.mu.Unlock()
		if taken {
			// A producer cleared the flag before the stop: it owes one
			// token — at once if it pushed, at its Release if it claimed —
			// and absorbing it here means no token outlives the stop and no
			// claimant is still at work when Sleep returns.
			<-q.wake
		}
		return false
	}
}

// Pushed reports how many items Push and ClaimOrPush have queued in total
// (for stats).
func (q *MPSC[T]) Pushed() int64 {
	q.mu.Lock()
	n := q.pushed
	q.mu.Unlock()
	return n
}

// Len reports the number of pending items (racy, for stats/tests only).
func (q *MPSC[T]) Len() int {
	q.mu.Lock()
	n := len(q.buf)
	q.mu.Unlock()
	return n
}
