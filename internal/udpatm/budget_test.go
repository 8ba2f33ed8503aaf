package udpatm

import (
	"testing"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/mts"
	"repro/internal/transport"
)

// TestStreamCopyBudget pins, under -tags budget, how many times the
// receive side copies a 16 KB message's payload octets on the way from
// the datagram to a RecvInto buffer: 2. On the default channel the message
// is its 36-octet header and 16,384 octets of body, cut into chunks of
// 8,184, 8,184 and 52 octets: three AAL5 frames of 171, 171 and 2 cells.
// Per message:
//   - atm.Reassembler moves every cell payload into the frame it was lent,
//     the chunk's place in the wire.Assembler's message frame: 344 × 48 =
//     16,512 octets, pad and trailers included;
//   - wire.Assembler.Push commits each chunk where it landed, and Take hands
//     the message frame to the consumer: nothing;
//   - core's RecvInto copies the payload into the caller's buffer: 16,384.
//
// 32,896 octets, 2.01 per payload octet. The one copy left, RecvInto's,
// goes only if the reassembler can gather into a receive the application
// posted before the message arrived.
//
// The count starts after a warm-up exchange, a message each way: a VC is
// lent no place in a message frame until it has completed a message, so
// its first message lands in the reassembler's own buffer and Push copies
// it in.
func TestStreamCopyBudget(t *testing.T) {
	if !budget.Enabled {
		t.Skip("exact counts need -tags budget")
	}
	const msgs, size, perMsg = 20, 16 << 10, 16512 + 16384
	net := NewNetwork()
	var procs [2]*core.Proc
	for i := 0; i < 2; i++ {
		rt := newRT("copy")
		ep, err := net.Attach(transport.ProcID(i), rt)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		procs[i] = core.New(core.Config{ID: core.ProcID(i), RT: rt, Endpoint: ep})
	}
	procs[0].TCreate("send", mts.PrioDefault, func(th *core.Thread) {
		payload := make([]byte, size)
		th.Send(0, 1, payload)
		th.Recv(core.Any, core.Any) // the reply: nothing else is in flight
		budget.Reset()
		for k := 0; k < msgs; k++ {
			th.Send(0, 1, payload)
		}
	})
	procs[1].TCreate("recv", mts.PrioDefault, func(th *core.Thread) {
		buf := make([]byte, size)
		th.RecvInto(buf, core.Any, core.Any)
		th.Send(0, 0, []byte("warm"))
		for k := 0; k < msgs; k++ {
			if n, _ := th.RecvInto(buf, core.Any, core.Any); n != size {
				t.Errorf("message %d: %d octets, want %d", k, n, size)
			}
		}
	})
	done := make(chan struct{}, 2)
	for _, p := range procs {
		p := p
		go func() { p.Start(); done <- struct{}{} }()
	}
	<-done
	<-done
	copied := budget.Read(budget.RecvCopied)
	t.Logf("receive side: %d octets copied for %d × %d payload octets, %.4f per payload octet",
		copied, msgs, size, float64(copied)/(msgs*size))
	if copied != msgs*perMsg {
		t.Errorf("receive side copied %d octets for %d messages, want %d × %d (2 copies per payload octet)",
			copied, msgs, msgs, perMsg)
	}
}
