package tcpip

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mts"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The reader under test serves proc streamSelf on a connection whose hello
// named proc streamPeer.
const (
	streamSelf = transport.ProcID(1)
	streamPeer = transport.ProcID(0)
)

// streamFrame is one length-prefixed frame as Send writes it.
func streamFrame(m *transport.Message) []byte {
	wb := frameMessage(m)
	defer wire.PutBuf(wb)
	return append([]byte(nil), wb.B...)
}

func goodFrame(n int) []byte {
	return streamFrame(&transport.Message{From: streamPeer, To: streamSelf, Tag: 3, Data: bytes.Repeat([]byte{0xA5}, n)})
}

// streamHello is what a dialer writes first.
func streamHello(p transport.ProcID) []byte {
	return binary.BigEndian.AppendUint32(nil, uint32(int32(p)))
}

// serveStream runs the endpoint's reader over a byte stream (hello first)
// with a frame handler that does what core's does — decode, and treat a
// failure as a bug — and returns the payload sizes it was handed and why the
// stream ended.
func serveStream(t testing.TB, stream []byte) (sizes []int, err error) {
	e := &TCPEndpoint{proc: streamSelf}
	e.SetFrameHandler(func(fb *wire.Buf) {
		m, err := wire.UnmarshalPooled(fb)
		if err != nil {
			t.Fatalf("reader handed over a frame that fails to decode: %v", err)
		}
		if m.To != streamSelf || m.From != streamPeer {
			t.Fatalf("reader handed over a frame %d->%d on a %d->%d connection", m.From, m.To, streamPeer, streamSelf)
		}
		sizes = append(sizes, len(m.Data))
		m.Release()
	})
	return sizes, e.serve(bytes.NewReader(stream))
}

func TestTCPStreamChecks(t *testing.T) {
	hdr := func(mut func(b []byte)) []byte {
		b := goodFrame(8)
		mut(b)
		return b
	}
	cases := []struct {
		name   string
		stream []byte
		frames int
		bad    bool
	}{
		{"two good frames", append(goodFrame(100), goodFrame(5000)...), 2, false},
		{"empty payload", goodFrame(0), 1, false},
		{"truncated prefix", []byte{0, 0}, 0, false},
		{"truncated body", goodFrame(100)[:60], 0, false},
		{"prefix below header size", binary.BigEndian.AppendUint32(nil, wire.HeaderSize-1), 0, true},
		{"huge prefix", hdr(func(b []byte) { binary.BigEndian.PutUint32(b, 1<<31) }), 0, true},
		{"bad magic", hdr(func(b []byte) { b[4] ^= 0xFF }), 0, true},
		{"forged From", hdr(func(b []byte) { binary.BigEndian.PutUint32(b[8:], 7) }), 0, true},
		{"wrong To", hdr(func(b []byte) { binary.BigEndian.PutUint32(b[12:], 7) }), 0, true},
		{"control words past the frame", hdr(func(b []byte) { binary.BigEndian.PutUint32(b, wire.HeaderSize); b[4+34] = 0x3 }), 0, true},
		{"retired cross-channel flag", hdr(func(b []byte) { b[4+34] = 0x4 }), 0, true},
		{"good then bad", append(goodFrame(10), hdr(func(b []byte) { b[4] ^= 0xFF })...), 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sizes, err := serveStream(t, append(streamHello(streamPeer), tc.stream...))
			if len(sizes) != tc.frames {
				t.Fatalf("delivered %d frames (%v), want %d", len(sizes), sizes, tc.frames)
			}
			if (err == errBadFrame) != tc.bad {
				t.Fatalf("stream ended with %v, want bad=%v", err, tc.bad)
			}
		})
	}
}

// TestTCPStreamLargeFrame: a body past the pool's largest class arrives
// whole, grown chunk by chunk.
func TestTCPStreamLargeFrame(t *testing.T) {
	const n = 5*wire.MaxPooled + 123
	sizes, err := serveStream(t, append(streamHello(streamPeer), goodFrame(n)...))
	if len(sizes) != 1 || sizes[0] != n || err != io.EOF {
		t.Fatalf("got sizes %v, err %v; want one %d-byte payload and EOF", sizes, err, n)
	}
}

// TestFramePayloadAligned: the reader stages every frame so its payload
// starts 64-byte aligned — for each header length (no control word, a
// credit, a credit and an ack), for an empty payload, and for a body past the
// pool's largest class that is grown as it arrives.
func TestFramePayloadAligned(t *testing.T) {
	var stream []byte
	var sent []*transport.Message
	for _, words := range []int{0, 1, 2} {
		for _, n := range []int{0, 64, 4 << 10, 32 << 10, 5*wire.MaxPooled + 123} {
			m := &transport.Message{From: streamPeer, To: streamSelf, HasCredit: words >= 1, HasAck: words == 2,
				Credit: 7, Ack: 9, Data: bytes.Repeat([]byte{byte(n + words)}, n)}
			sent = append(sent, m)
			stream = append(stream, streamFrame(m)...)
		}
	}
	e := &TCPEndpoint{proc: streamSelf}
	got := 0
	e.SetFrameHandler(func(fb *wire.Buf) {
		at := reflect.ValueOf(fb.B).Pointer() + uintptr(wire.HeaderLen(fb.B))
		m, err := wire.UnmarshalPooled(fb)
		if err != nil {
			t.Fatal(err)
		}
		want := sent[got]
		if at%wire.PayloadAlign != 0 || len(m.Data) > 0 && reflect.ValueOf(m.Data).Pointer() != at {
			t.Errorf("%d-octet header, %d B: payload at %#x, not %d-byte aligned", m.WireSize()-len(m.Data), len(m.Data), at, wire.PayloadAlign)
		}
		if !bytes.Equal(m.Data, want.Data) || m.HasCredit != want.HasCredit || m.HasAck != want.HasAck {
			t.Errorf("frame %d: delivered a different message", got)
		}
		m.Release()
		got++
	})
	if err := e.serve(bytes.NewReader(append(streamHello(streamPeer), stream...))); err != io.EOF || got != len(sent) {
		t.Fatalf("delivered %d of %d frames, stream ended with %v", got, len(sent), err)
	}
}

// TestTCPHostileLengthCommitsNoMemory: a valid header claiming the largest
// frame the reader accepts, followed by nothing, costs the reader one chunk
// the size of the pool's largest class — not the 64 MB the parent allocated
// on the prefix's word.
func TestTCPHostileLengthCommitsNoMemory(t *testing.T) {
	stream := goodFrame(0)
	binary.BigEndian.PutUint32(stream, wire.MaxFrame)
	stream = append(streamHello(streamPeer), stream...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sizes, err := serveStream(t, stream)
	runtime.ReadMemStats(&after)
	if len(sizes) != 0 || err == nil || err == errBadFrame {
		t.Fatalf("sizes %v err %v: want nothing delivered and a truncated stream", sizes, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("a claimed %d-byte frame with no body allocated %d bytes", wire.MaxFrame, got)
	}
}

// FuzzTCPStream feeds arbitrary bytes, after a hello, to the reader with a
// frame handler installed: it must not panic, must hand over only frames
// that decode and are addressed as the connection allows, and must not
// commit memory in proportion to a length it has only been told.
func FuzzTCPStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		stream := append(streamHello(streamPeer), data...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sizes, _ := serveStream(t, stream)
		runtime.ReadMemStats(&after)
		total := 0
		for _, n := range sizes {
			total += n
		}
		if total > len(data) {
			t.Fatalf("handed over %d payload bytes from a %d-byte stream", total, len(data))
		}
		// The read buffer, one pooled chunk per frame begun, and doubling
		// growth behind bytes that really arrived.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+4*len(data)); got > limit {
			t.Fatalf("%d-byte stream made the reader allocate %d bytes (limit %d)", len(data), got, limit)
		}
	})
}

// tcpPair attaches two endpoints on fresh runtimes.
func tcpPair(t *testing.T) (a, b *TCPEndpoint, rtA, rtB *mts.Runtime) {
	t.Helper()
	net := NewTCPNetwork()
	rtA = mts.New(mts.Config{Name: "a", IdleTimeout: 10 * time.Second})
	rtB = mts.New(mts.Config{Name: "b", IdleTimeout: 10 * time.Second})
	a, err := net.Attach(0, rtA)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err = net.Attach(1, rtB)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return a, b, rtA, rtB
}

// goroutinesSettle waits for the goroutine count to come back down to want:
// a goroutine Close has joined may still be on its way out.
func goroutinesSettle(t *testing.T, want int, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, want %d\n%s", what, runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPCloseStopsEverything: Close returns only when the accept loop,
// every reader and every writer have exited, closes accepted connections
// too, and no frame handler call happens afterwards; with both endpoints
// closed, no goroutine either started is left.
func TestTCPCloseStopsEverything(t *testing.T) {
	baseline := runtime.NumGoroutine()
	a, b, _, _ := tcpPair(t)
	var closed atomic.Bool
	got := make(chan int, 64)
	b.SetFrameHandler(func(fb *wire.Buf) {
		if closed.Load() {
			t.Error("frame handler called after Close returned")
		}
		got <- len(fb.B)
		wire.PutBuf(fb)
	})
	m := &transport.Message{From: 0, To: 1, Data: make([]byte, 100)}
	a.Send(nil, m)
	<-got

	// A stranger that says hello and then stalls mid-frame keeps a reader
	// parked in Read; Close has to get it out.
	raw, err := net.DialTCP("tcp4", nil, b.ln.Addr().(*net.TCPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.Write(append(streamHello(5), 0, 0))
	for deadline := time.Now().Add(5 * time.Second); ; {
		b.mu.Lock()
		n := len(b.inbound)
		b.mu.Unlock()
		if n == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d inbound connections tracked, want 2", n)
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan struct{})
	go func() { b.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return: a goroutine the endpoint started is still running")
	}
	closed.Store(true)
	if n := len(b.inbound); n != 0 {
		t.Fatalf("%d inbound connections still tracked after Close", n)
	}
	// The accepted side of a's connection is closed: a's next writes fail
	// (at the latest once the reset has come back) instead of vanishing into
	// a reader that outlived its endpoint.
	for i := 0; i < 1000 && a.SendDrops() == 0; i++ {
		a.Send(nil, m)
		time.Sleep(time.Millisecond)
	}
	if a.SendDrops() == 0 {
		t.Fatal("sends to a closed endpoint never failed: its accepted connection is still open")
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil || isTimeout(err) {
		t.Fatalf("stalled inbound connection not closed by Close (read: %v)", err)
	}
	// a has dialed b several times over by now, one writer per connection.
	a.Close()
	goroutinesSettle(t, baseline, "after both endpoints closed")
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// TestTCPSendToDeadPeerDropsAndRedials: a write that fails drops its frames,
// counts them and forgets the connection; it does not panic, and a later Send
// dials again. Then the accounting, on a connection that can only fail: of
// 1,000 frames sent across the failure — part of the failed write, queued
// behind it, refused by the closed queue, or on the connection dialed next —
// every one is either delivered or counted dropped, and the forgotten
// connection's writer is gone.
func TestTCPSendToDeadPeerDropsAndRedials(t *testing.T) {
	a, b, _, _ := tcpPair(t)
	got := collect(t, b, 2048)
	m := &transport.Message{From: 0, To: 1, Data: make([]byte, 64)}
	a.Send(nil, m)
	<-got

	// Kill the connection under a: the accepted side goes away.
	b.mu.Lock()
	for c := range b.inbound {
		c.Close()
	}
	b.mu.Unlock()
	// The first write after a reset may still succeed locally; the failure
	// surfaces within a few, and from then on Send re-dials and delivers.
	deadline := time.Now().Add(5 * time.Second)
	for redialed := false; !redialed; {
		a.Send(nil, m)
		select {
		case <-got:
			redialed = a.SendDrops() > 0 // dropped at least one, then re-dialed and delivered
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("no delivery after the reset (drops %d)", a.SendDrops())
		}
	}

	goroutines, drops := runtime.NumGoroutine(), a.SendDrops()
	old := connOf(a, 1)
	// Every write on it fails from here on, at once and locally; b's reader
	// sees the stream end.
	old.sock.CloseWrite()
	const n = 1000
	m.Tag = 1
	for i := 0; i < n; i++ {
		a.Send(nil, m)
	}
	// Whatever was not dropped went out on a fresh connection and arrives.
	delivered, tick := int64(0), time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for deadline := time.After(5 * time.Second); delivered+a.SendDrops()-drops < n; {
		select {
		case f := <-got:
			delivered += int64(f.tag)
		case <-tick.C:
		case <-deadline:
			t.Fatalf("%d frames sent across a failed write: %d delivered, %d counted dropped", n, delivered, a.SendDrops()-drops)
		}
	}
	if d := a.SendDrops() - drops; d == 0 || delivered+d != n {
		t.Fatalf("%d frames sent across a failed write: %d delivered, %d counted dropped", n, delivered, d)
	}
	// The writer counts its drops before it forgets the connection.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		now := connOf(a, 1)
		if now != old && (now != nil || delivered == 0) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failed connection still cached (%v), or its replacement missing after %d deliveries", now == old, delivered)
		}
	}
	goroutinesSettle(t, goroutines, "after a reset and a re-dial")
}

// TestTCPSendAfterCloseDrops: Send on a closed endpoint drops and counts.
func TestTCPSendAfterCloseDrops(t *testing.T) {
	a, _, _, _ := tcpPair(t)
	a.Close()
	a.Send(nil, &transport.Message{From: 0, To: 1})
	a.SendBatch(nil, []*transport.Message{{From: 0, To: 1}, {From: 0, To: 1}})
	if got := a.SendDrops(); got != 3 {
		t.Fatalf("SendDrops = %d, want 3", got)
	}
}

// TestTCPBadFramesCounted: a stream that fails the reader's checks is closed
// and counted, over a real socket.
func TestTCPBadFramesCounted(t *testing.T) {
	_, b, _, _ := tcpPair(t)
	b.SetFrameHandler(func(fb *wire.Buf) { t.Error("bad frame delivered"); wire.PutBuf(fb) })
	raw, err := net.DialTCP("tcp4", nil, b.ln.Addr().(*net.TCPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	forged := goodFrame(16)
	binary.BigEndian.PutUint32(forged[8:], 9) // From: not who the hello said
	raw.Write(append(streamHello(streamPeer), forged...))
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil || isTimeout(err) {
		t.Fatalf("stream with a forged From not closed (read: %v)", err)
	}
	for deadline := time.Now().Add(5 * time.Second); b.BadFrames() != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("BadFrames = %d, want 1", b.BadFrames())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPHandlerPathAllocs pins the Handler path's steady state: the reader
// decodes into pooled structs and one pre-bound drain carries them into the
// scheduler domain, so a delivered message allocates nothing (the parent
// built one closure per frame).
func TestTCPHandlerPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	a, b, _, rtB := tcpPair(t)
	ack := make(chan struct{})
	b.SetHandler(func(m *transport.Message) {
		m.Release()
		ack <- struct{}{}
	})
	keeper := rtB.Create("keeper", mts.PrioDefault, func(th *mts.Thread) { th.Park("keeper") })
	done := make(chan struct{})
	go func() { rtB.Run(); close(done) }()
	m := &transport.Message{From: 0, To: 1, Data: make([]byte, 4096)}
	round := func() {
		a.Send(nil, m)
		<-ack
	}
	for i := 0; i < 64; i++ {
		round()
	}
	avg := testing.AllocsPerRun(500, round)
	rtB.Post(func() { rtB.Unblock(keeper, false) })
	<-done
	if avg > 0.1 {
		t.Fatalf("Handler path allocates %.2f/msg, want 0", avg)
	}
}
