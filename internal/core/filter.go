package core

import (
	"fmt"

	"repro/internal/trace"
	"repro/internal/transport"
)

// Message-passing filters (paper Figures 6 and 12): adapters that map the
// primitives of existing tools onto NCS so "any parallel/distributed
// application written using these tools can be ported to NCS without any
// change". The p4 filter is implemented here; its API mirrors internal/p4
// but every call rides the NCS system threads, so a program ported through
// the filter gains non-blocking-process semantics for free when it runs
// multiple threads.

// P4Filter presents p4-style typed process-addressed primitives on top of
// an NCS thread.
type P4Filter struct {
	t *Thread
}

// P4 returns the p4-style view of an NCS thread.
func P4(t *Thread) *P4Filter { return &P4Filter{t: t} }

// Send is p4_send: typed, process-addressed. It maps onto an NCS tagged
// send targeted at the peer's same-index thread.
func (f *P4Filter) Send(typ int, to ProcID, data []byte) {
	f.t.SendTagged(typ, f.t.idx, to, data)
}

// Recv is p4_recv with -1 wildcards: *typ and *from are in/out parameters
// updated to the actual type and source.
func (f *P4Filter) Recv(typ *int, from *ProcID) []byte {
	wantTag := Any
	if typ != nil {
		wantTag = *typ
	}
	wantFrom := ProcID(Any)
	if from != nil {
		wantFrom = *from
	}
	p := f.t.proc
	// Match on tag and source process only (p4 has no thread addressing):
	// accept from any source thread.
	data, addr, tag := f.t.recvTagOut(wantTag, Any, wantFrom)
	_ = p
	if typ != nil {
		*typ = tag
	}
	if from != nil {
		*from = addr.Proc
	}
	return data
}

// MessagesAvailable is p4_messages_available.
func (f *P4Filter) MessagesAvailable() bool {
	return f.t.MessagesAvailable(Any, ProcID(Any))
}

// recvTagOut is RecvTagged that also reports the matched tag; it listens
// on the default channel.
func (t *Thread) recvTagOut(tag, fromThread int, fromProc ProcID) ([]byte, Addr, int) {
	return t.recvOn(0, tag, fromThread, fromProc)
}

// recvOn is the blocking receive body shared by Thread.Recv (channel 0)
// and Channel.Recv. The returned payload is the application's to keep, so
// the message's frame cannot recycle — RecvInto is the allocation-free
// variant.
func (t *Thread) recvOn(ch ChannelID, tag, fromThread int, fromProc ProcID) ([]byte, Addr, int) {
	m := t.recvMsgOn(ch, tag, fromThread, fromProc)
	return m.Data, Addr{Proc: m.From, Thread: m.FromThread}, m.Tag
}

// recvIntoOn is the blocking receive body of the RecvInto variants: the
// payload is copied into the caller's buffer and the message's pooled
// frame returns to the wire pool, so a steady-state receive loop on a
// pooled carrier allocates nothing.
func (t *Thread) recvIntoOn(buf []byte, ch ChannelID, tag, fromThread int, fromProc ProcID) (int, Addr) {
	m := t.recvMsgOn(ch, tag, fromThread, fromProc)
	if len(buf) < len(m.Data) {
		panic(fmt.Sprintf("core: RecvInto buffer (%d bytes) smaller than message (%d bytes)", len(buf), len(m.Data)))
	}
	n := copy(buf, m.Data)
	from := Addr{Proc: m.From, Thread: m.FromThread}
	m.Release()
	return n, from
}

// recvMsgOn blocks until a message matching the pattern is consumed and
// returns it.
func (t *Thread) recvMsgOn(ch ChannelID, tag, fromThread int, fromProc ProcID) *transport.Message {
	p := t.proc
	if i := p.matchStore(ch, tag, fromThread, fromProc, t.idx); i >= 0 {
		m := p.store[i]
		p.store = removeAt(p.store, i)
		p.consume(t.mt, m)
		p.received.Add(1)
		return m
	}
	if e := p.deadRecvErr(fromProc, nil); e != nil {
		p.exception(e)
		panic(e)
	}
	w := p.getWaiter()
	w.t = t
	w.ch = ch
	w.fromThread = fromThread
	w.fromProc = fromProc
	w.tag = tag
	p.waiters = append(p.waiters, w)
	p.traceThread(t, trace.Idle)
	t.mt.Park("ncs recv")
	p.traceThread(t, trace.Compute)
	if w.err != nil {
		err := w.err
		p.putWaiter(w)
		p.exception(err)
		panic(err)
	}
	p.received.Add(1)
	got := w.got
	p.putWaiter(w)
	return got
}

// recvAnyOf blocks until a message on channel ch with the given tag (or
// Any) arrives from *any* address in set, and returns the message together
// with the matched set index. It is the multi-source receive under the
// out-of-order Gather/Reduce paths and the collective layer's child
// collection: arrivals complete in whatever order the network delivers
// them, so one slow peer never head-of-line-blocks the rest. The set is
// only read until the call returns; the caller may mutate it afterwards.
func (t *Thread) recvAnyOf(ch ChannelID, tag int, set []Addr) (*transport.Message, int) {
	p := t.proc
	for i, m := range p.store {
		if m.Channel != ch || m.ToThread != t.idx {
			continue
		}
		if tag != Any && m.Tag != tag {
			continue
		}
		if j := addrIndex(set, m); j >= 0 {
			p.store = removeAt(p.store, i)
			p.consume(t.mt, m)
			p.received.Add(1)
			return m, j
		}
	}
	if e := p.deadRecvErr(Any, set); e != nil {
		p.exception(e)
		panic(e)
	}
	w := p.getWaiter()
	w.t = t
	w.ch = ch
	w.tag = tag
	w.multi = set
	p.waiters = append(p.waiters, w)
	p.traceThread(t, trace.Idle)
	t.mt.Park("ncs recv")
	p.traceThread(t, trace.Compute)
	if w.err != nil {
		err := w.err
		p.putWaiter(w)
		p.exception(err)
		panic(err)
	}
	p.received.Add(1)
	got := w.got
	p.putWaiter(w)
	return got, addrIndex(set, got)
}

// getWaiter draws a recvWaiter from the freelist (or allocates); putWaiter
// returns one once the woken receiver has read its match. Scheduler-domain
// only, like the queues it feeds.
func (p *Proc) getWaiter() *recvWaiter {
	if n := len(p.waiterFree); n > 0 {
		w := p.waiterFree[n-1]
		p.waiterFree = p.waiterFree[:n-1]
		return w
	}
	return &recvWaiter{}
}

func (p *Proc) putWaiter(w *recvWaiter) {
	*w = recvWaiter{}
	p.waiterFree = append(p.waiterFree, w)
}
