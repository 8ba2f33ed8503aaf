package main

// spans.go is the benchmark's own span recorder. A traced repetition records
// a root span "bench.op" per op on every workload thread and one child span
// around each call that thread makes into core (ncs.go places them). Spans go
// into per-thread buffers allocated before the run and are analysed — and,
// when a trace directory is given, written out as JSON lines — only after it.
// Every method is safe on a nil receiver, which is the untraced case.

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
)

type spanKind uint8

const (
	spanOp spanKind = iota
	spanSend
	spanRecv
	spanBcast
	spanReduce
	spanBarrier
	spanOpenCall
	spanCloseCall
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"bench.op", "core.send", "core.recv", "core.bcast", "core.reduce",
	"core.barrier", "core.opencall", "core.closecall",
}

// span is one recorded interval; op ties a child to its root on the same
// thread.
type span struct {
	start, dur int64 // ns; start is on the process epoch (nowNs)
	op         uint32
	kind       spanKind
}

// Span buffers are sized per thread when the thread is registered (24 B per
// span). A buffer that fills stops recording and counts what it dropped; the
// distributions the layer metrics need are settled long before. A fabric has
// at most 8 long-lived threads; a virtual mesh makes 64 short-lived ones per
// mesh, each good for a few hundred spans.
const (
	fabricSpans = 1 << 18
	vmeshSpans  = 512
)

type spanBuf struct {
	rec     *recorder
	role    string
	spans   []span
	op      uint32
	child   int64 // ns covered by child spans of the current op
	dropped int64
	self    []int64 // root-span self time (duration minus children), ns
}

type recorder struct {
	on   atomic.Bool // spans are kept only while the timed window is open
	mu   sync.Mutex
	bufs []*spanBuf
}

func newRecorder() *recorder { return &recorder{} }

func (r *recorder) buffer(role string, capacity int) *spanBuf {
	if r == nil {
		return nil
	}
	b := &spanBuf{rec: r, role: role,
		spans: make([]span, 0, capacity), self: make([]int64, 0, capacity/2)}
	r.mu.Lock()
	r.bufs = append(r.bufs, b)
	r.mu.Unlock()
	return b
}

func (b *spanBuf) begin() int64 {
	if b == nil {
		return 0
	}
	return nowNs()
}

func (b *spanBuf) end(kind spanKind, start int64) {
	if b == nil {
		return
	}
	d := nowNs() - start
	b.child += d
	b.add(span{start: start, dur: d, op: b.op, kind: kind})
}

func (b *spanBuf) add(s span) {
	if !b.rec.on.Load() {
		return
	}
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return
	}
	b.spans = append(b.spans, s)
}

// OpBegin opens the thread's root span.
func (t *Thread) OpBegin() {
	if t.sp != nil {
		t.sp.child = 0
	}
}

// OpEnd closes the root span opened at OpBegin. start and dur are the
// caller's own timing of the op, so the root span costs a traced run no
// extra clock reads.
func (t *Thread) OpEnd(start, dur int64) {
	b := t.sp
	if b == nil {
		return
	}
	b.add(span{start: start, dur: dur, op: b.op, kind: spanOp})
	if b.rec.on.Load() && len(b.self) < cap(b.self) {
		b.self = append(b.self, dur-b.child)
	}
	b.op++
}

// p50us returns the median duration of every span of kind k, in µs.
func (r *recorder) p50us(k spanKind) float64 {
	var d []int64
	for _, b := range r.bufs {
		for _, s := range b.spans {
			if s.kind == k {
				d = append(d, s.dur)
			}
		}
	}
	return float64(quantileInt(d, 0.5)) / 1e3
}

// selfUs is the median self time of each role's root spans, in µs: the
// generator's own cost along one op, by the thread role that pays it.
func (r *recorder) selfUs() map[string]float64 {
	byRole := map[string][]int64{}
	for _, b := range r.bufs {
		byRole[b.role] = append(byRole[b.role], b.self...)
	}
	out := map[string]float64{}
	for role, d := range byRole {
		out[role] = float64(quantileInt(d, 0.5)) / 1e3
	}
	return out
}

// traceLines bounds the trace file, shared evenly among the threads; the
// analysis above always uses every recorded span.
const traceLines = 200000

// write dumps the spans as JSON lines: per thread one line saying how many
// spans it recorded and dropped, then one object per span.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	perThread := traceLines / max(1, len(r.bufs))
	for i, b := range r.bufs {
		fmt.Fprintf(w, `{"thread":%d,"role":%q,"recorded":%d,"dropped":%d}`+"\n", i, b.role, len(b.spans), b.dropped)
		for _, s := range b.spans[:min(len(b.spans), perThread)] {
			fmt.Fprintf(w, `{"thread":%d,"role":%q,"span":%q,"op":%d,"start_ns":%d,"dur_ns":%d}`+"\n",
				i, b.role, spanNames[s.kind], s.op, s.start, s.dur)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantileInt returns the q-quantile (nearest rank) of d, sorting it in
// place; 0 for an empty slice.
func quantileInt(d []int64, q float64) int64 {
	if len(d) == 0 {
		return 0
	}
	slices.Sort(d)
	i := int(q * float64(len(d)))
	if i >= len(d) {
		i = len(d) - 1
	}
	return d[i]
}
