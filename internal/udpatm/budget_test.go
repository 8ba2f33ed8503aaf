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
// the datagram to a RecvInto buffer: 4. On the default channel the message
// is its 36-octet header and 16,384 octets of body, cut into chunks of
// 8,184, 8,184 and 52 octets: three AAL5 frames of 171, 171 and 2 cells.
// Per message:
//   - atm.Reassembler moves every cell payload into the frame: 344 × 48 =
//     16,512 octets;
//   - wire.Assembler.Push copies each chunk's body into the message: 16,420;
//   - deliverChunk copies the message into its wire.GetFrame frame: 16,420;
//   - core's RecvInto copies the payload into the caller's buffer: 16,384.
//
// 65,736 octets, 4.01 per payload octet. One destination for all four
// would make it 1.
func TestStreamCopyBudget(t *testing.T) {
	if !budget.Enabled {
		t.Skip("exact counts need -tags budget")
	}
	const msgs, size, perMsg = 20, 16 << 10, 16512 + 16420 + 16420 + 16384
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
	budget.Reset()
	procs[0].TCreate("send", mts.PrioDefault, func(th *core.Thread) {
		payload := make([]byte, size)
		for k := 0; k < msgs; k++ {
			th.Send(0, 1, payload)
		}
	})
	procs[1].TCreate("recv", mts.PrioDefault, func(th *core.Thread) {
		buf := make([]byte, size)
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
		t.Errorf("receive side copied %d octets for %d messages, want %d × %d (4 copies per payload octet)",
			copied, msgs, msgs, perMsg)
	}
}
