package tcpip

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// The transmit side: each dialed connection's queue and writer goroutine.

// arrival is what the receiving endpoint's frame handler saw of one frame.
type arrival struct {
	tag, seq int
	err      error // payload not as seqPayload wrote it
}

// collect installs a frame handler on e that decodes every frame, checks its
// payload against the sequence number it carries and reports it on the
// returned channel (which must be drained: a full channel blocks the reader).
func collect(t *testing.T, e *TCPEndpoint, depth int) <-chan arrival {
	got := make(chan arrival, depth)
	e.SetFrameHandler(func(fb *wire.Buf) {
		m, err := wire.UnmarshalPooled(fb)
		if err != nil {
			t.Errorf("reader handed over a frame that fails to decode: %v", err)
			return
		}
		a := arrival{tag: m.Tag}
		if len(m.Data) >= 4 {
			a.seq = int(binary.BigEndian.Uint32(m.Data))
			a.err = checkSeq(m.Data, a.seq, len(m.Data))
		}
		m.Release()
		got <- a
	})
	return got
}

// expectInOrder receives n arrivals and fails unless each tag's frames come
// whole and in sequence from 0.
func expectInOrder(t *testing.T, got <-chan arrival, n int) {
	t.Helper()
	next := map[int]int{}
	deadline := time.After(20 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case a := <-got:
			if a.err != nil || a.seq != next[a.tag] {
				t.Fatalf("sender %d: got frame %d (%v), want frame %d", a.tag, a.seq, a.err, next[a.tag])
			}
			next[a.tag]++
		case <-deadline:
			t.Fatalf("%d of %d frames arrived (per sender: %v)", i, n, next)
		}
	}
}

// connOf is the dialed connection from e toward dst.
func connOf(e *TCPEndpoint, dst transport.ProcID) *tcpConn {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.conns[dst]
}

// TestTCPWriteCombining: the writer puts what is queued on the wire in one
// call. A SendBatch run leaves in exactly one write; back-to-back Sends from
// one goroutine outrun the writer and share writes; and two senders on one
// connection keep every frame whole and each sender's frames in order.
func TestTCPWriteCombining(t *testing.T) {
	a, b, _, _ := tcpPair(t)
	got := collect(t, b, 64)

	const k = 16
	run := make([]*transport.Message, k)
	for i := range run {
		run[i] = &transport.Message{From: 0, To: 1, Data: seqPayload(make([]byte, 300+i), i)}
	}
	a.SendBatch(nil, run)
	expectInOrder(t, got, k)
	if writes, frames := a.WriteStats(); writes != 1 || frames != k {
		t.Fatalf("a SendBatch of %d frames left in %d writes carrying %d frames, want one write", k, writes, frames)
	}

	const n = 1000
	go func() {
		m := &transport.Message{From: 0, To: 1, Tag: 1, Data: make([]byte, 64)}
		for i := 0; i < n; i++ {
			seqPayload(m.Data, i)
			a.Send(nil, m)
		}
	}()
	expectInOrder(t, got, n)
	writes, frames := a.WriteStats()
	if writes, frames = writes-1, frames-k; frames != n || writes >= n {
		t.Fatalf("%d back-to-back Sends left in %d writes carrying %d frames, want fewer writes than frames", n, writes, frames)
	}
	t.Logf("%d back-to-back Sends: %d writes", n, writes)

	// Two lanes' worth: one sends singly, one in runs, sizes on both sides
	// of the read buffer.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		m := &transport.Message{From: 0, To: 1, Tag: 2}
		buf := make([]byte, 20_000)
		for i := 0; i < n; i++ {
			m.Data = seqPayload(buf[:8+(i%3)*9_000], i)
			a.Send(nil, m)
		}
	}()
	go func() {
		defer wg.Done()
		run := make([]*transport.Message, 4)
		for i := range run {
			run[i] = &transport.Message{From: 0, To: 1, Tag: 3, Data: make([]byte, 1_000)}
		}
		for i := 0; i < n; i += len(run) {
			for j, m := range run {
				seqPayload(m.Data, i+j)
			}
			a.SendBatch(nil, run)
		}
	}()
	expectInOrder(t, got, 2*n)
	wg.Wait()
	if drops := a.SendDrops(); drops != 0 {
		t.Fatalf("SendDrops = %d on a healthy connection", drops)
	}
}

// TestTCPSendBackpressureBounded: the queue's bound and its overload
// behaviour. With the peer's reader stuck in its frame handler the sockets
// fill, the writer blocks, the queue climbs to maxQueuedBytes and Send waits
// there; when the handler is released everything arrives, once, in order.
func TestTCPSendBackpressureBounded(t *testing.T) {
	a, b, _, _ := tcpPair(t)
	const n, size = 1500, 32 << 10 // 48 MB: more than loopback sockets hold
	gate := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(open) // before b's Close, which joins the reader stuck at the gate
	var next atomic.Int64
	done := make(chan struct{})
	b.SetFrameHandler(func(fb *wire.Buf) {
		<-gate
		m, err := wire.UnmarshalPooled(fb)
		if err != nil {
			t.Errorf("reader handed over a frame that fails to decode: %v", err)
			return
		}
		k := int(next.Add(1)) - 1
		if err := checkSeq(m.Data, k, size); err != nil {
			t.Error(err)
		}
		m.Release()
		if k == n-1 {
			close(done)
		}
	})
	var sent atomic.Int64
	go func() {
		m := &transport.Message{From: 0, To: 1, Data: make([]byte, size)}
		for i := 0; i < n; i++ {
			seqPayload(m.Data, i)
			a.Send(nil, m)
			sent.Add(1)
		}
	}()

	// The sender is at the mark when the queue has no room for its next
	// frame, and stuck there once the sockets are full too and the writer
	// has stopped taking frames off it.
	frame := 4 + wire.HeaderSize + size
	queued := func() int {
		c := connOf(a, 1)
		if c == nil {
			return 0
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.queued > maxQueuedBytes {
			t.Errorf("%d bytes queued, the bound is %d", c.queued, maxQueuedBytes)
		}
		return c.queued
	}
	for deadline := time.Now().Add(20 * time.Second); ; {
		before := sent.Load()
		time.Sleep(50 * time.Millisecond)
		if sent.Load() == before && queued()+frame > maxQueuedBytes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sender never stopped at the high-water mark: %d sent, %d bytes queued", sent.Load(), queued())
		}
	}
	if now := sent.Load(); now >= n {
		t.Fatalf("all %d Sends returned with the peer not reading", now)
	}
	if next.Load() != 0 {
		t.Fatal("a frame got past the blocked handler")
	}

	open()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%d of %d frames delivered after the handler was released", next.Load(), n)
	}
	if got, drops := next.Load(), a.SendDrops(); got != n || drops != 0 {
		t.Fatalf("%d frames delivered, %d dropped; want %d and 0", got, drops, n)
	}
}

// TestTCPCloseFlushesAccepted: what Send accepted, Close writes before it
// closes the socket.
func TestTCPCloseFlushesAccepted(t *testing.T) {
	a, b, _, _ := tcpPair(t)
	const n = 500
	got := collect(t, b, n)
	m := &transport.Message{From: 0, To: 1, Data: make([]byte, 4<<10)}
	for i := 0; i < n; i++ {
		seqPayload(m.Data, i)
		a.Send(nil, m)
	}
	a.Close()
	if writes, frames := a.WriteStats(); frames != n {
		t.Fatalf("Close returned with %d of %d accepted frames written (%d writes)", frames, n, writes)
	}
	expectInOrder(t, got, n)
	if drops := a.SendDrops(); drops != 0 {
		t.Fatalf("SendDrops = %d", drops)
	}
}

// TestTCPSendPathAllocs pins the transmit path's steady state, Send → queue
// → writer → socket → reader → frame handler: pooled frames, two swap slices
// for the queue and a retained writev vector, so a frame allocates nothing.
func TestTCPSendPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	a, b, _, _ := tcpPair(t)
	ack := make(chan struct{}, 2)
	b.SetFrameHandler(func(fb *wire.Buf) {
		wire.PutBuf(fb)
		ack <- struct{}{}
	})
	m := &transport.Message{From: 0, To: 1, Data: make([]byte, 4096)}
	pair := []*transport.Message{m, {From: 0, To: 1, Data: make([]byte, 64)}}
	round := func() {
		a.Send(nil, m)
		<-ack
		a.SendBatch(nil, pair) // the writev side
		<-ack
		<-ack
	}
	for i := 0; i < 64; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(500, round); avg > 0.1 {
		t.Fatalf("transmit path allocates %.2f per round of three frames, want 0", avg)
	}
}
