package transport

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/mts"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// alignCases are the messages every carrier's frame layout is checked on:
// header lengths 36, 40 and 44 (no control word, a credit, a credit and an
// ack) times payloads of 0 B, 64 B, 4 KB and 32 KB.
func alignCases() []*Message {
	var ms []*Message
	for _, words := range []int{0, 1, 2} {
		for _, n := range []int{0, 64, 4 << 10, 32 << 10} {
			m := &Message{From: 0, To: 1, Tag: n, HasCredit: words >= 1, HasAck: words == 2,
				Credit: 7, Ack: 9, Data: bytes.Repeat([]byte{byte(n + words)}, n)}
			ms = append(ms, m)
		}
	}
	return ms
}

// checkAligned decodes a delivered frame and fails unless its payload starts
// on a wire.PayloadAlign boundary (for an empty payload: where it would
// start) and matches what was sent.
func checkAligned(t *testing.T, via string, fb *wire.Buf, sent *Message) {
	t.Helper()
	at := reflect.ValueOf(fb.B).Pointer() + uintptr(wire.HeaderLen(fb.B))
	m, err := wire.UnmarshalPooled(fb)
	if err != nil {
		t.Fatalf("%s: %v", via, err)
	}
	defer m.Release()
	name := fmt.Sprintf("%s: %d-octet header, %d B", via, m.WireSize()-len(m.Data), len(m.Data))
	if at%wire.PayloadAlign != 0 || len(m.Data) > 0 && reflect.ValueOf(m.Data).Pointer() != at {
		t.Errorf("%s: payload at %#x, not %d-byte aligned", name, at, wire.PayloadAlign)
	}
	if !bytes.Equal(m.Data, sent.Data) || m.HasCredit != sent.HasCredit || m.HasAck != sent.HasAck {
		t.Errorf("%s: delivered a different message", name)
	}
}

// TestFramePayloadAligned: Mem (Send and SendBatch) and SimMesh deliver
// frames whose payload starts 64-byte aligned, for every header length.
func TestFramePayloadAligned(t *testing.T) {
	ms := alignCases()

	net := NewMem()
	rt := mts.New(mts.Config{Name: "align", IdleTimeout: 5 * time.Second})
	net.Attach(0, rt)
	dst := net.Attach(1, rt)
	var via string
	var want []*Message
	dst.SetFrameHandler(func(fb *wire.Buf) {
		if len(want) == 0 {
			t.Fatalf("%s: unexpected frame", via)
		}
		checkAligned(t, via, fb, want[0])
		want = want[1:]
	})
	src := net.endpoints[0]
	for _, m := range ms {
		via, want = "Mem.Send", []*Message{m}
		src.Send(nil, m)
	}
	via, want = "Mem.SendBatch", ms
	src.SendBatch(nil, ms)
	if len(want) != 0 {
		t.Fatalf("SendBatch delivered %d of %d frames", len(ms)-len(want), len(ms))
	}

	eng := sim.NewEngine()
	mesh := NewSimMesh(netsim.NewFrameMesh(eng, 2, netsim.FrameMeshConfig{HostLinkBps: 1e9}))
	a, b := mesh.Attach(0), mesh.Attach(1)
	got := 0
	b.SetFrameHandler(func(fb *wire.Buf) {
		checkAligned(t, "SimMesh", fb, ms[got])
		got++
	})
	for _, m := range ms {
		a.Send(nil, m)
	}
	eng.Run()
	if got != len(ms) {
		t.Fatalf("SimMesh delivered %d of %d frames", got, len(ms))
	}
}
