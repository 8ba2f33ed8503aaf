package udpatm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/mts"
	"repro/internal/transport"
	"repro/internal/wire"
)

// malformedFrames are message frames no wire decoder accepts, each keyed by
// what is wrong with its header. Carried by frameCells they are sound all the
// way up to the message: every cell passes HEC, every AAL5 frame its CRC,
// every chunk its framing.
func malformedFrames() map[string][]byte {
	valid := (&transport.Message{From: 0, To: 1, Data: []byte("payload")}).MarshalAppend(nil)
	with := func(i int, b byte) []byte {
		f := bytes.Clone(valid)
		f[i] = b
		return f
	}
	ctrl := (&transport.Message{From: 0, To: 1, HasCredit: true, HasAck: true}).MarshalAppend(nil)
	return map[string][]byte{
		"short":             valid[:wire.HeaderSize-1],
		"bad-magic":         with(0, valid[0]^0xFF),
		"undefined-flag":    with(34, 1<<2),
		"reserved-octet":    with(35, 1),
		"missing-ctrl-word": ctrl[:wire.HeaderSize+4], // announces two words, carries one
	}
}

// TestFrameHandlerGetsOnlyDecodableFrames: the frame handler decodes without
// a second opinion — core's routeFrame panics on a frame that fails to — so
// the reader hands it a completed message only once wire.PeekHeader has
// accepted the header. A message that fails is dropped and counted in
// BadCells, one per message, exactly as on the Inbox path; the handler never
// sees it. Then the same datagrams go to a core.Proc on lane engines, whose
// reader delivers to routeFrame: it must not panic, and a sound message
// behind the malformed ones must still arrive.
func TestFrameHandlerGetsOnlyDecodableFrames(t *testing.T) {
	vc := atm.VCForChan(0, 1, 0)
	var dgrams [][]byte
	seq := uint32(1)
	for _, f := range malformedFrames() {
		dgrams = append(dgrams, frameCells(vc, seq, f))
		seq++
	}
	bad := int64(len(dgrams))
	after := messageCells(vc, seq, []byte("after"))

	var handed []string
	e := frameDirect(func(fb *wire.Buf) {
		m, err := wire.UnmarshalPooled(fb)
		if err != nil {
			t.Fatalf("the frame handler was handed a frame that fails to decode: %v", err)
		}
		handed = append(handed, string(m.Data))
		m.Release()
	}, func(e *Endpoint) {
		for _, d := range append(dgrams, after) {
			e.receiveTrain(d)
		}
	})
	if len(handed) != 1 || handed[0] != "after" {
		t.Fatalf("the frame handler was handed %q, want only the sound message", handed)
	}
	if e.BadCells() != bad {
		t.Fatalf("BadCells = %d, want %d: one per malformed message", e.BadCells(), bad)
	}

	rt := newRT("rx")
	ep, err := NewNetwork().Attach(1, rt)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	p := core.New(core.Config{ID: 1, RT: rt, Endpoint: ep, SendLanes: 2, RecvLanes: 2})
	var got []byte
	p.TCreate("rx", mts.PrioDefault, func(th *core.Thread) { got, _ = th.Recv(core.Any, 0) })
	engine := false
	for _, th := range rt.Threads() {
		engine = engine || th.Name() == "ncs1-lanes"
	}
	if !engine {
		t.Fatal("a proc at two lanes on udpatm does not run the lane engine")
	}
	raw, err := net.DialUDP("udp4", nil, ep.conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	for _, d := range append(dgrams, after) {
		if _, err := raw.Write(d); err != nil {
			t.Fatal(err)
		}
	}
	p.Start()
	if string(got) != "after" {
		t.Fatalf("received %q, want the sound message", got)
	}
	if ep.BadCells() != bad {
		t.Fatalf("BadCells = %d, want %d", ep.BadCells(), bad)
	}
}

// TestRingShiftOverUDPATM is TestRingShiftOverTCP (tcpip) on the cell
// carrier. udpatm declares no transport.ReaderDelivery: its reader runs
// inline passes, which take lane locks and send acknowledgements, and
// registers a peer's default channel on first contact. That is sound only
// because its Send waits for nobody but its own writer goroutine, and the
// writer waits for nobody: a UDP write to a full socket buffer drops the
// datagram instead of blocking. Four procs in a ring on two lanes, each on
// go-back-N, each send their successor more than maxQueuedFrames' worth
// before receiving anything, so senders wait at the mark holding a lane lock
// while readers pass frames on. If any of that waited on a peer the ring
// would stop; it must finish, every message in order despite what the
// sockets drop.
func TestRingShiftOverUDPATM(t *testing.T) {
	const n, msgs, size = 4, 40, 64 << 10
	if msgs*size <= maxQueuedFrames*MaxChunk {
		t.Fatalf("%d × %d octets fit under maxQueuedFrames: no sender would wait", msgs, size)
	}
	netw := NewNetwork()
	procs := make([]*core.Proc, n)
	for i := range procs {
		rt := mts.New(mts.Config{Name: fmt.Sprintf("ring%d", i), IdleTimeout: 20 * time.Second})
		ep, err := netw.Attach(transport.ProcID(i), rt)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		procs[i] = core.New(core.Config{
			ID: core.ProcID(i), RT: rt, Endpoint: ep, SendLanes: 2, RecvLanes: 2,
			Error: core.NewGoBackN(msgs, 20*time.Millisecond),
		})
	}
	errs := make([]error, n)
	for i := range procs {
		i := i
		procs[i].TCreate("shift", mts.PrioDefault, func(th *core.Thread) {
			next, prev := core.ProcID((i+1)%n), core.ProcID((i+n-1)%n)
			buf := make([]byte, size)
			for k := 0; k < msgs; k++ {
				binary.BigEndian.PutUint32(buf, uint32(k))
				buf[size-1] = byte(k)
				if err := th.Send(0, next, buf); err != nil {
					errs[i] = err
					return
				}
			}
			for k := 0; k < msgs; k++ {
				got, _ := th.RecvInto(buf, core.Any, prev)
				if got != size || binary.BigEndian.Uint32(buf) != uint32(k) || buf[size-1] != byte(k) {
					errs[i] = fmt.Errorf("position %d: %d octets of message %d", k, got, binary.BigEndian.Uint32(buf))
					return
				}
			}
		})
	}
	done := make(chan struct{}, n)
	for _, p := range procs {
		p := p
		go func() { p.Start(); done <- struct{}{} }()
	}
	deadline := time.After(2 * time.Minute)
	for range procs {
		select {
		case <-done:
		case <-deadline:
			t.Fatal("the ring is still running after 2m")
		}
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("proc %d: %v", i, err)
		}
	}
}
