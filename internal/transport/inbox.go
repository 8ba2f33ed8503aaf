package transport

import (
	"sync"
	"sync/atomic"

	"repro/internal/mts"
)

// InboxCap bounds the messages an Inbox holds. A producer that finds it full
// waits for the next drain; a socket carrier's reader waiting there stops
// reading, and the kernel's buffers push back on the peer.
const InboxCap = 1024

// Inbox is the Handler path's one queue, embedded by every real-mode carrier
// that delivers decoded messages (Mem, real TCP, udpatm), which gives each
// its SetHandler. It is Figure 8's hand-off from the network into a proc's
// scheduler: producers — a sender's goroutine, a socket reader — Put decoded
// messages; the first Put of a batch posts the inbox's one pre-bound drain to
// the runtime, and the drain hands everything queued to the handler in the
// scheduler domain, in Put order. The queue and the slice the drain works on
// swap, so the steady state allocates nothing.
//
// Overload: at InboxCap queued messages Put waits. A nil handler, or a closed
// inbox, releases the message instead of delivering it.
type Inbox struct {
	post    func(fn func()) // the runtime's Post
	drainFn func()
	closed  atomic.Bool // read by a running drain without mu

	mu       sync.Mutex
	space    sync.Cond // a producer waits here at InboxCap
	q, spare []*Message
	handler  Handler
	draining bool // a drain is posted or running
}

// Init binds the inbox to the runtime its drains run in. Call it once, on the
// inbox in its final place, before the first Put.
func (in *Inbox) Init(rt *mts.Runtime) {
	in.post = rt.Post
	in.space.L = &in.mu
	in.drainFn = in.drain
}

// SetHandler implements Endpoint for the carrier that embeds the inbox.
func (in *Inbox) SetHandler(h Handler) {
	in.mu.Lock()
	in.handler = h
	in.mu.Unlock()
}

// Put queues m for the handler, waiting while InboxCap messages are queued,
// and posts the drain unless one is already posted or running. It reports
// false, with m released, once the inbox is closed.
func (in *Inbox) Put(m *Message) bool {
	in.mu.Lock()
	for len(in.q) >= InboxCap && !in.closed.Load() {
		in.space.Wait()
	}
	if in.closed.Load() {
		in.mu.Unlock()
		m.Release()
		return false
	}
	in.q = append(in.q, m)
	post := !in.draining
	in.draining = true
	in.mu.Unlock()
	if post {
		in.post(in.drainFn)
	}
	return true
}

// drain delivers everything queued, batch by batch, until the queue is empty.
// Scheduler domain.
func (in *Inbox) drain() {
	in.mu.Lock()
	for len(in.q) > 0 {
		batch, h := in.q, in.handler
		in.q, in.spare = in.spare[:0], nil
		in.space.Broadcast()
		in.mu.Unlock()
		for i, m := range batch {
			if h == nil || in.closed.Load() {
				m.Release()
			} else {
				h(m)
			}
			batch[i] = nil
		}
		in.mu.Lock()
		in.spare = batch[:0]
	}
	in.draining = false
	in.mu.Unlock()
}

// Close releases what is queued and a producer waiting in Put; every later
// Put releases its message, and a drain still running releases the rest of
// its batch. Idempotent.
func (in *Inbox) Close() {
	in.mu.Lock()
	in.closed.Store(true)
	for _, m := range in.q {
		m.Release()
	}
	clear(in.q)
	in.q = in.q[:0]
	in.space.Broadcast()
	in.mu.Unlock()
}
