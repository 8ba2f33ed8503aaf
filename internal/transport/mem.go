package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mts"
	"repro/internal/wire"
)

// Mem is the real-mode in-process transport: a full mesh between endpoints
// whose runtimes execute concurrently in real time. Delivery crosses
// goroutines through the destination's Inbox (or its frame handler), and
// every message passes through the wire codec so nothing is shared by
// reference.
//
// Fault injection (drop patterns, added latency) exists so the NCS error-
// and flow-control machinery can be tested against a misbehaving network.
type Mem struct {
	mu        sync.Mutex
	endpoints map[ProcID]*MemEndpoint
	latency   time.Duration
	// dropEvery drops every Nth data message when > 0 (deterministic loss
	// for go-back-N tests). Counted per transport, not per endpoint.
	dropEvery int
	// dropRate drops messages at random with the given probability; the
	// seeded generator keeps runs reproducible without the phase-locking
	// a strictly periodic pattern can exhibit against fixed-size
	// retransmission rounds.
	dropRate  float64
	dropRNG   *rand.Rand
	sendCount int
	dropped   int
	// dropClass, when set, restricts fault injection to messages it
	// selects — e.g. only one channel's traffic — so tests can break one
	// traffic class and assert another is unaffected.
	dropClass func(*Message) bool
	// Batching counters: SendBatch calls with more than one message and
	// the messages they carried (benchmarks report them next to the
	// control-plane counters).
	batchCalls, batchedMsgs int64
	// Crash/partition injection (failure-domain chaos): killed procs
	// blackhole all traffic in both directions, cut drops directed proc
	// pairs. Both count into dropped.
	killed map[ProcID]bool
	cut    map[[2]ProcID]bool
}

// KillHost crashes proc p: every message to or from it is silently dropped
// until ReviveHost. Idempotent.
func (n *Mem) KillHost(p ProcID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.killed == nil {
		n.killed = make(map[ProcID]bool)
	}
	n.killed[p] = true
}

// ReviveHost undoes KillHost. Idempotent.
func (n *Mem) ReviveHost(p ProcID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.killed, p)
}

// Partition cuts the pair a<->b in both directions; traffic to and from
// every other proc is unaffected. Idempotent.
func (n *Mem) Partition(a, b ProcID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cut == nil {
		n.cut = make(map[[2]ProcID]bool)
	}
	n.cut[[2]ProcID{a, b}] = true
	n.cut[[2]ProcID{b, a}] = true
}

// Heal undoes Partition for the pair. Idempotent.
func (n *Mem) Heal(a, b ProcID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cut, [2]ProcID{a, b})
	delete(n.cut, [2]ProcID{b, a})
}

// BatchStats reports how much traffic rode the batched path: multi-message
// SendBatch calls and the messages they carried.
func (n *Mem) BatchStats() (calls, msgs int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.batchCalls, n.batchedMsgs
}

// NewMem returns an empty mesh.
func NewMem() *Mem {
	return &Mem{endpoints: make(map[ProcID]*MemEndpoint)}
}

// SetLatency adds a fixed real-time delivery delay.
func (n *Mem) SetLatency(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.latency = d
}

// SetDropEvery makes the transport drop every k-th message (k > 0); 0
// disables loss.
func (n *Mem) SetDropEvery(k int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dropEvery = k
	n.sendCount = 0
}

// SetDropRate makes the transport drop each message independently with
// probability rate, using a deterministic seed; rate 0 disables loss.
func (n *Mem) SetDropRate(rate float64, seed int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dropRate = rate
	n.dropRNG = rand.New(rand.NewSource(seed))
}

// SetDropClass restricts fault injection to messages fn selects (nil
// selects everything again). The drop pattern/rate still decides *whether*
// an eligible message drops; fn decides *which* traffic is eligible.
func (n *Mem) SetDropClass(fn func(*Message) bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dropClass = fn
}

// Dropped returns how many messages were discarded by fault injection.
func (n *Mem) Dropped() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dropped
}

// Attach creates an endpoint for proc whose deliveries run in rt's
// scheduler domain.
func (n *Mem) Attach(proc ProcID, rt *mts.Runtime) *MemEndpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.endpoints[proc]; dup {
		panic(fmt.Sprintf("transport: duplicate endpoint for proc %d", proc))
	}
	ep := &MemEndpoint{net: n, proc: proc}
	ep.Init(rt)
	n.endpoints[proc] = ep
	return ep
}

// MemEndpoint implements Endpoint over a Mem mesh. Its Inbox carries
// decoded messages into the scheduler domain on the Handler path.
type MemEndpoint struct {
	Inbox
	net  *Mem
	proc ProcID

	// frameH, when set, bypasses the Inbox delivery path entirely:
	// frames destined for this endpoint are handed to it in the *sender's*
	// goroutine (see FrameCarrier). Stored atomically so concurrent sending
	// lanes read it without a lock.
	frameH atomic.Pointer[FrameHandler]
}

// memScratch stages one SendBatch call's marshalled frames and
// fault-injection verdicts. Pooled rather than per-endpoint because under
// the sharded core several lanes can run SendBatch on the same endpoint
// concurrently.
type memScratch struct {
	frames []*wire.Buf
	drops  []bool
}

var scratchPool = sync.Pool{New: func() any { return new(memScratch) }}

// Proc implements Endpoint.
func (e *MemEndpoint) Proc() ProcID { return e.proc }

// SetFrameHandler implements FrameCarrier. Must be installed before any
// peer sends; delivery switches from the Inbox path to direct calls in the
// sender's goroutine.
func (e *MemEndpoint) SetFrameHandler(h FrameHandler) {
	e.frameH.Store(&h)
}

// deliverFrame routes one marshalled frame to the endpoint: straight to
// the frame handler when one is installed, else decoded into the Inbox.
func (e *MemEndpoint) deliverFrame(fb *wire.Buf) {
	if hp := e.frameH.Load(); hp != nil {
		(*hp)(fb)
		return
	}
	m, err := wire.UnmarshalPooled(fb)
	if err != nil {
		panic("transport: self-produced message failed to decode: " + err.Error())
	}
	e.Put(m)
}

// dropLocked runs fault injection for one message; callers hold n.mu.
func (n *Mem) dropLocked(m *Message) bool {
	if n.killed[m.From] || n.killed[m.To] || n.cut[[2]ProcID{m.From, m.To}] {
		n.dropped++
		return true
	}
	n.sendCount++
	drop := n.dropEvery > 0 && n.sendCount%n.dropEvery == 0
	if !drop && n.dropRate > 0 && n.dropRNG.Float64() < n.dropRate {
		drop = true
	}
	if drop && n.dropClass != nil && !n.dropClass(m) {
		drop = false
	}
	if drop {
		n.dropped++
	}
	return drop
}

// Send implements Endpoint. Mem accepts instantly, so the calling thread is
// never parked; delivery happens asynchronously in the destination domain.
func (e *MemEndpoint) Send(t *mts.Thread, m *Message) {
	if m.From != e.proc {
		panic(fmt.Sprintf("transport: proc %d sending message from %d", e.proc, m.From))
	}
	n := e.net
	n.mu.Lock()
	dst, ok := n.endpoints[m.To]
	if !ok {
		n.mu.Unlock()
		panic(fmt.Sprintf("transport: send to unknown proc %d", m.To))
	}
	drop := n.dropLocked(m)
	latency := n.latency
	n.mu.Unlock()
	if drop {
		return
	}
	// Roundtrip through the codec: the receiver gets an independent copy,
	// exactly as if the bytes crossed a wire. The marshal is the single
	// copy on this path — ownership of the pooled frame transfers to the
	// receiver, which decodes it zero-copy (UnmarshalPooled); consumers
	// that copy the payload out recycle it, so steady-state traffic runs
	// on a fixed set of buffers instead of churning the allocator. Since
	// the marshal buffer becomes the received frame, it is laid out as one
	// (wire.GetFrame): the payload the consumer copies out — 32 KB at a
	// time on a bulk stream — starts 64-byte aligned, not 4 mod 8 behind
	// the bare header, which is what keeps that copy on memmove's fast path.
	fb := marshalFrame(m)
	if latency > 0 {
		time.AfterFunc(latency, func() { dst.deliverFrame(fb) })
		return
	}
	dst.deliverFrame(fb)
}

// SendBatch implements BatchSender: one mesh-lock acquisition runs fault
// injection for the whole run, and the surviving frames enter the
// destination's scheduler domain under a single drain of its Inbox — one
// wakeup per burst instead of one per message.
func (e *MemEndpoint) SendBatch(t *mts.Thread, ms []*Message) {
	if len(ms) == 0 {
		return
	}
	n := e.net
	n.mu.Lock()
	dst, ok := n.endpoints[ms[0].To]
	if !ok {
		n.mu.Unlock()
		panic(fmt.Sprintf("transport: send to unknown proc %d", ms[0].To))
	}
	if len(ms) > 1 {
		n.batchCalls++
		n.batchedMsgs += int64(len(ms))
	}
	// Only the fault-injection verdicts need the mesh lock (the seeded
	// RNG); the marshal copies run after unlock so one sender's burst
	// never serializes the whole mesh behind its memcpy loop. The scratch
	// is pooled: concurrent lanes batching to the same endpoint each get
	// their own staging buffers.
	sc := scratchPool.Get().(*memScratch)
	drops := sc.drops[:0]
	for _, m := range ms {
		if m.From != e.proc {
			n.mu.Unlock()
			panic(fmt.Sprintf("transport: proc %d sending message from %d", e.proc, m.From))
		}
		if m.To != ms[0].To {
			n.mu.Unlock()
			panic("transport: SendBatch run mixes destinations")
		}
		drops = append(drops, n.dropLocked(m))
	}
	latency := n.latency
	n.mu.Unlock()
	sc.drops = drops[:0]
	frames := sc.frames[:0]
	for i, m := range ms {
		if drops[i] {
			continue
		}
		frames = append(frames, marshalFrame(m))
	}
	for _, fb := range frames {
		if latency > 0 {
			// Latency is modeled per message; batching would distort it.
			fb := fb
			time.AfterFunc(latency, func() { dst.deliverFrame(fb) })
			continue
		}
		// In order, in this goroutine: to the frame handler (a channel's
		// messages batch under its lane's lock, so per-channel FIFO is
		// preserved) or into the Inbox, whose first Put of the run posts
		// the one drain.
		dst.deliverFrame(fb)
	}
	// The frames now belong to the destination; drop the scratch
	// references so the backing array pins nothing between batches.
	for i := range frames {
		frames[i] = nil
	}
	sc.frames = frames[:0]
	scratchPool.Put(sc)
}
