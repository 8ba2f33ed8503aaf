package udpatm

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/mts"
	"repro/internal/transport"
	"repro/internal/wire"
)

// readers counts the goroutines running an endpoint's readLoop.
func readers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "udpatm.(*Endpoint).readLoop(")
}

// TestCloseJoinsReader: a peer whose runtime never runs never drains its
// inbox, so its reader ends up waiting at the inbox's cap with a message in
// hand. Close must release that reader and wait for it: once both endpoints
// have closed, no reader either started is left.
func TestCloseJoinsReader(t *testing.T) {
	before := readers()
	netw := NewNetwork()
	epA, err := netw.Attach(0, newRT("a"))
	if err != nil {
		t.Fatal(err)
	}
	epB, err := netw.Attach(1, newRT("b")) // its runtime never runs
	if err != nil {
		t.Fatal(err)
	}
	const n = 1100
	m := &transport.Message{From: 0, To: 1}
	for i := 0; i < n; i++ {
		epA.Send(nil, m)
	}
	// The reader counts a message's cells before it hands the message on, so
	// once the cells of InboxCap+1 messages are counted, it has filled the
	// inbox and holds one more.
	want := int64(transport.InboxCap+1) * int64(atm.CellCount(wire.ChunkHeaderSize+wire.HeaderSize))
	for deadline := time.Now().Add(5 * time.Second); epB.CellsReceived() < want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d cells received, want %d", epB.CellsReceived(), want)
		}
	}
	epA.Close()
	epB.Close()
	// A joined reader may still be returning from its last frame.
	for deadline := time.Now().Add(time.Second); readers() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d endpoint readers outlive Close", readers()-before)
		}
	}
}

// TestHandlerPathAllocs pins the receive side's steady state, the twin of
// TestSendAllocs: reassembly into per-VC grow-once buffers, the message
// staged in a pooled frame and decoded into a pooled struct, and the Inbox's
// one pre-bound drain carrying it into the scheduler domain, so a delivered
// message allocates nothing.
func TestHandlerPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	netw := NewNetwork()
	rtB := newRT("b")
	a, err := netw.Attach(0, newRT("a"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := netw.Attach(1, rtB)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
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
