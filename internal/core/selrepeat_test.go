package core

import (
	"testing"
	"time"

	"repro/internal/mts"
	"repro/internal/transport"
)

func runLossyARQ(t *testing.T, mk func() ErrorControl, msgs int) (got []int, dropped int, retrans int64) {
	t.Helper()
	mem := transport.NewMem()
	mem.SetDropRate(0.3, 99)
	procs := realCluster(t, 2, mem, func(i int) (FlowControl, ErrorControl) {
		return nil, mk()
	})
	procs[0].TCreate("sender", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < msgs; k++ {
			th.Send(0, 1, []byte{byte(k)})
		}
	})
	procs[1].TCreate("recv", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < msgs; k++ {
			data, _ := th.Recv(Any, Any)
			got = append(got, int(data[0]))
		}
		// Count at the last delivery, not at proc exit: once this thread
		// returns its proc leaves, and a sender whose final acks were among
		// the dropped retries the tail MaxRetries times into the void — a
		// cost of the peer being gone, not of the ARQ scheme. The Config
		// instance is a template; read the live per-channel state machine
		// (the accessor takes the sender's lane lock).
		switch ec := procs[0].DefaultChannel(1).Error().(type) {
		case *GoBackN:
			retrans = ec.Retransmissions()
		case *SelectiveRepeat:
			retrans = ec.Retransmissions()
		}
	})
	runReal(procs)
	return got, mem.Dropped(), retrans
}

func TestSelectiveRepeatOverLossyTransport(t *testing.T) {
	const n = 15
	got, dropped, _ := runLossyARQ(t, func() ErrorControl {
		return NewSelectiveRepeat(4, 20*time.Millisecond)
	}, n)
	if len(got) != n {
		t.Fatalf("received %d of %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken at %d: %v", i, got)
		}
	}
	if dropped == 0 {
		t.Fatal("no loss injected — test proves nothing")
	}
}

func TestSelectiveRepeatRetransmitsLessThanGBN(t *testing.T) {
	// Under the same loss pattern, selective repeat re-sends only the lost
	// messages while go-back-N re-sends whole windows.
	const n = 30
	_, _, srRetrans := runLossyARQ(t, func() ErrorControl {
		return NewSelectiveRepeat(8, 20*time.Millisecond)
	}, n)
	_, _, gbnRetrans := runLossyARQ(t, func() ErrorControl {
		return NewGoBackN(8, 20*time.Millisecond)
	}, n)
	if srRetrans >= gbnRetrans {
		t.Fatalf("selective repeat retransmitted %d, go-back-N %d — expected SR < GBN",
			srRetrans, gbnRetrans)
	}
}

func TestSelectiveRepeatInOrderDeliveryDespiteBuffering(t *testing.T) {
	// Heavier loss to force deep buffering of out-of-order arrivals.
	mem := transport.NewMem()
	mem.SetDropRate(0.4, 7)
	procs := realCluster(t, 2, mem, func(i int) (FlowControl, ErrorControl) {
		return nil, NewSelectiveRepeat(6, 15*time.Millisecond)
	})
	const n = 20
	var got []int
	procs[0].TCreate("sender", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < n; k++ {
			th.Send(0, 1, []byte{byte(k)})
		}
	})
	procs[1].TCreate("recv", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < n; k++ {
			data, _ := th.Recv(Any, Any)
			got = append(got, int(data[0]))
		}
	})
	runReal(procs)
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken at %d: %v", i, got)
		}
	}
}

func TestSelectiveRepeatValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad window accepted")
		}
	}()
	NewSelectiveRepeat(0, time.Second)
}

// TestSelectiveRepeatWindowBoundsBuffer: the receive side buffers and acks
// only [expected, expected+Window). A frame at expected+Window is released
// without an ack and leaves nothing buffered, while reordering inside the
// window still comes out in sequence order.
func TestSelectiveRepeatWindowBoundsBuffer(t *testing.T) {
	const window = 4
	mem := transport.NewMem()
	procs := realCluster(t, 2, mem, nil)
	procs[0].Open(1, ChannelConfig{ID: 1, Error: NewSelectiveRepeat(window, time.Second)})
	sr := NewSelectiveRepeat(window, time.Second)
	c := procs[1].Open(0, ChannelConfig{ID: 1, Error: sr})
	msgs := map[uint32]*transport.Message{}
	data := func(seq uint32) *transport.Message {
		msgs[seq] = &transport.Message{From: 0, To: 1, Channel: 1, ESeq: seq}
		return msgs[seq]
	}

	ln := c.lockLane()
	if sr.onData(data(1+window)) || len(sr.buffered) != 0 || len(c.pendAcks) != 0 {
		t.Fatalf("frame at expected+Window: buffered %d, acks %v, want none", len(sr.buffered), c.pendAcks)
	}
	for _, seq := range []uint32{3, 2} {
		if sr.onData(data(seq)) {
			t.Fatalf("out-of-order seq %d delivered", seq)
		}
	}
	if !sr.onData(data(1)) {
		t.Fatal("in-order seq 1 not delivered")
	}
	if sr.expected != 4 || len(sr.buffered) != 0 {
		t.Fatalf("after the gap filled: expected %d, %d buffered; want 4, 0", sr.expected, len(sr.buffered))
	}
	for _, seq := range []uint32{2, 3} {
		if ln.rxq.empty() {
			t.Fatalf("buffered seq %d not flushed", seq)
		}
		if it := ln.rxq.pop(); it.m != msgs[seq] || it.m.ESeq != 0 {
			t.Fatalf("flushed out of order, or with its ESeq kept, at seq %d", seq)
		}
	}
	if got := c.pendAcks; len(got) != 3 || got[0] != 3 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("acks %v, want [3 2 1]", got)
	}
	if sr.onData(data(4+window)) || len(sr.buffered) != 0 || len(c.pendAcks) != 3 {
		t.Fatal("the window did not slide with expected")
	}
	ln.mu.Unlock()

	for _, p := range procs {
		p.TCreate("noop", mts.PrioDefault, func(*Thread) {})
	}
	runReal(procs)
}
