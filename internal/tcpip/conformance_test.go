package tcpip

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mts"
	"repro/internal/transport"
)

// A carrier has to behave the same under every engine driver it can get, and
// exactly as Mem does. The table below runs the same scenarios over Mem and
// over real TCP, at one lane (thread driver: the send and receive system
// threads, Handler delivery) and at two (goroutine driver: one engine
// goroutine per lane, frame delivery on the connection readers).

// cluster builds n real-mode procs on the named carrier.
func cluster(t *testing.T, carrier string, n, lanes int, mod func(i int, cfg *core.Config)) []*core.Proc {
	t.Helper()
	mem, tcp := transport.NewMem(), NewTCPNetwork()
	procs := make([]*core.Proc, n)
	for i := range procs {
		rt := mts.New(mts.Config{Name: fmt.Sprintf("%s%d", carrier, i), IdleTimeout: 20 * time.Second})
		cfg := core.Config{ID: core.ProcID(i), RT: rt, SendLanes: lanes, RecvLanes: lanes}
		if carrier == "tcp" {
			ep, err := tcp.Attach(cfg.ID, rt)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ep.Close() })
			cfg.Endpoint = ep
		} else {
			cfg.Endpoint = mem.Attach(cfg.ID, rt)
		}
		if mod != nil {
			mod(i, &cfg)
		}
		procs[i] = core.New(cfg)
		if got := procs[i].Lanes(); got != lanes {
			t.Fatalf("%s proc runs %d lanes, want %d", carrier, got, lanes)
		}
	}
	return procs
}

// start runs every proc to completion, failing the test instead of hanging
// if they do not finish (a thread waiting at a connection's high-water mark
// is not idle, so the runtimes' own deadlock detection cannot see it).
func start(t *testing.T, procs []*core.Proc, limit time.Duration) {
	t.Helper()
	done := make(chan struct{}, len(procs))
	for _, p := range procs {
		p := p
		go func() { p.Start(); done <- struct{}{} }()
	}
	deadline := time.After(limit)
	for range procs {
		select {
		case <-done:
		case <-deadline:
			t.Fatalf("procs still running after %v", limit)
		}
	}
}

// seqPayload is a message that names its place in its stream.
func seqPayload(buf []byte, seq int) []byte {
	binary.BigEndian.PutUint32(buf, uint32(seq))
	for i := 4; i < len(buf); i++ {
		buf[i] = byte(seq + i)
	}
	return buf
}

func checkSeq(got []byte, seq, size int) error {
	if len(got) != size || int(binary.BigEndian.Uint32(got)) != seq {
		return fmt.Errorf("message %d: got %d bytes, seq %d; want %d bytes", seq, len(got), binary.BigEndian.Uint32(got), size)
	}
	for i := 4; i < len(got); i++ {
		if got[i] != byte(seq+i) {
			return fmt.Errorf("message %d corrupt at byte %d", seq, i)
		}
	}
	return nil
}

// fifoTwoChannels: two channels to one peer, pinned to different lanes, each
// fed by its own thread with sizes on both sides of the inline-pass limit;
// each must arrive in order.
func fifoTwoChannels(t *testing.T, carrier string, lanes int) {
	const msgs = 300
	size := func(k int) int { return 8 + (k%3)*3000 }
	procs := cluster(t, carrier, 2, lanes, nil)
	var ends [2][2]*core.Channel
	for ch := 0; ch < 2; ch++ {
		for end := 0; end < 2; end++ {
			ends[ch][end] = procs[end].Open(core.ProcID(1-end), core.ChannelConfig{ID: core.ChannelID(ch + 1), Lane: ch + 1})
		}
	}
	if lanes > 1 && ends[0][1].Stats().Lane == ends[1][1].Stats().Lane {
		t.Fatal("the two channels share a lane")
	}
	errs := make([]error, 2)
	for ch := 0; ch < 2; ch++ {
		ch := ch
		procs[0].TCreate("tx", mts.PrioDefault, func(th *core.Thread) {
			buf := make([]byte, size(2))
			for k := 0; k < msgs; k++ {
				ends[ch][0].Send(th, ch, seqPayload(buf[:size(k)], k))
			}
		})
		procs[1].TCreate("rx", mts.PrioDefault, func(th *core.Thread) {
			for k := 0; k < msgs && errs[ch] == nil; k++ {
				got, _ := ends[ch][1].Recv(th, core.Any)
				errs[ch] = checkSeq(got, k, size(k))
			}
		})
	}
	start(t, procs, time.Minute)
	for ch, err := range errs {
		if err != nil {
			t.Fatalf("channel %d: %v", ch+1, err)
		}
	}
}

// bulkBothWays: a windowed, sequenced 16 KB stream in each direction at
// once, so credits and acks ride data frames the other way.
func bulkBothWays(t *testing.T, carrier string, lanes int) {
	const msgs, size = 200, 16 << 10
	procs := cluster(t, carrier, 2, lanes, nil)
	var ends [2]*core.Channel
	for i := range ends {
		ends[i] = procs[i].Open(core.ProcID(1-i), core.ChannelConfig{
			ID: 3, Flow: core.NewWindowFlow(8), Error: core.NewGoBackN(8, 500*time.Millisecond),
		})
	}
	errs := make([]error, 2)
	for i := range procs {
		i := i
		procs[i].TCreate("tx", mts.PrioDefault, func(th *core.Thread) {
			buf := make([]byte, size)
			for k := 0; k < msgs; k++ {
				ends[i].Send(th, 1, seqPayload(buf, k))
			}
		})
		procs[i].TCreate("rx", mts.PrioDefault, func(th *core.Thread) {
			buf := make([]byte, size)
			for k := 0; k < msgs && errs[i] == nil; k++ {
				n, _ := ends[i].RecvInto(th, buf, core.Any)
				errs[i] = checkSeq(buf[:n], k, size)
			}
		})
	}
	start(t, procs, time.Minute)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("proc %d: %v", i, err)
		}
	}
}

// openCloseCall: a signaled call sets up, carries data and closes with the
// full handshake; neither end leaks.
func openCloseCall(t *testing.T, carrier string, lanes int) {
	const msgs = 16
	procs := cluster(t, carrier, 2, lanes, func(i int, cfg *core.Config) {
		if i == 1 {
			cfg.OnAccept = func(c *core.Channel) {
				c.Proc().TCreate("serve", mts.PrioDefault, func(th *core.Thread) {
					c.Send(th, c.PeerThread(), []byte{0})
					for k := 0; k < msgs; k++ {
						c.Recv(th, core.Any)
					}
					c.Send(th, c.PeerThread(), []byte{1})
				})
			}
		}
	})
	var openErr, closeErr error
	var served []byte
	procs[0].TCreate("dial", mts.PrioDefault, func(th *core.Thread) {
		defer th.Send(0, 1, []byte("bye"))
		ch, err := procs[0].OpenCall(th, 1, core.CallConfig{
			Flow: core.NewWindowFlow(4), Error: core.NewGoBackN(8, 500*time.Millisecond),
		})
		if openErr = err; err != nil {
			return
		}
		_, srv := ch.Recv(th, core.Any)
		for k := 0; k < msgs; k++ {
			ch.Send(th, srv.Thread, []byte{byte(k)})
		}
		served, _ = ch.Recv(th, core.Any)
		closeErr = ch.CloseCall(th)
	})
	procs[1].TCreate("keeper", mts.PrioDefault, func(th *core.Thread) { th.Recv(core.Any, core.Any) })
	start(t, procs, time.Minute)
	if openErr != nil || closeErr != nil {
		t.Fatalf("OpenCall: %v, CloseCall: %v", openErr, closeErr)
	}
	if len(served) != 1 || served[0] != 1 {
		t.Fatalf("served reply = %v", served)
	}
	for i, p := range procs {
		if leaks := p.Leaks(); len(leaks) != 0 {
			t.Fatalf("proc %d leaks: %v", i, leaks)
		}
	}
}

// recvIntoAllocs: a 4 KB echo with RecvInto on both sides runs on pooled
// frames, pooled message structs and the engines' freelists — nothing is
// allocated per round trip on either proc, carrier included. Counted over
// the whole process, as TestMemRoundTripAllocs does for the bare carrier.
func recvIntoAllocs(t *testing.T, carrier string, lanes int) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const warm, rounds, size = 200, 2000, 4 << 10
	procs := cluster(t, carrier, 2, lanes, nil)
	var perRound float64
	procs[0].TCreate("client", mts.PrioDefault, func(th *core.Thread) {
		out, in := make([]byte, size), make([]byte, size)
		var before, after runtime.MemStats
		for k := 0; k < warm+rounds; k++ {
			if k == warm {
				runtime.ReadMemStats(&before)
			}
			th.Send(0, 1, out)
			th.RecvInto(in, 0, 1)
		}
		runtime.ReadMemStats(&after)
		perRound = float64(after.Mallocs-before.Mallocs) / rounds
	})
	procs[1].TCreate("server", mts.PrioDefault, func(th *core.Thread) {
		in := make([]byte, size)
		for k := 0; k < warm+rounds; k++ {
			n, _ := th.RecvInto(in, 0, 0)
			th.Send(0, 0, in[:n])
		}
	})
	start(t, procs, time.Minute)
	t.Logf("%s lanes=%d: %.3f allocs per 4 KB round trip", carrier, lanes, perRound)
	if perRound > 0.1 {
		t.Fatalf("4 KB RecvInto round trip allocates %.3f/op, want 0", perRound)
	}
}

func TestCarrierConformance(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(t *testing.T, carrier string, lanes int)
	}{
		{"fifo-two-channels", fifoTwoChannels},
		{"bulk-both-ways", bulkBothWays},
		{"open-close-call", openCloseCall},
		{"recvinto-allocs", recvIntoAllocs},
	}
	for _, carrier := range []string{"mem", "tcp"} {
		for _, lanes := range []int{1, 2} {
			for _, sc := range scenarios {
				carrier, lanes, sc := carrier, lanes, sc
				t.Run(fmt.Sprintf("%s/lanes=%d/%s", carrier, lanes, sc.name), func(t *testing.T) {
					sc.run(t, carrier, lanes)
				})
			}
		}
	}
}

// TestRingShiftOverTCP is the case the lane lock rules exist for (core's
// lane.go, "Lock order"): four procs in a ring on two lanes — previous and
// next peer hash to the same lane — each sending 8 MB to its successor, far
// more than the sockets hold, before it receives anything from its
// predecessor. Every sender ends up waiting at its connection's high-water
// mark, holding a lane lock, behind a writer blocked on a full socket, and
// gets out only if the reader that relieves it never waits on a lane: with
// an inline pass or a first-contact channel registration on the reader's
// goroutine, the ring stops for good.
func TestRingShiftOverTCP(t *testing.T) {
	const n, msgs, size = 4, 128, 64 << 10
	procs := cluster(t, "tcp", n, 2, nil)
	errs := make([]error, n)
	for i := range procs {
		i := i
		procs[i].TCreate("shift", mts.PrioDefault, func(th *core.Thread) {
			next, prev := core.ProcID((i+1)%n), core.ProcID((i+n-1)%n)
			buf := make([]byte, size)
			for k := 0; k < msgs; k++ {
				th.Send(0, next, seqPayload(buf, k))
			}
			for k := 0; k < msgs && errs[i] == nil; k++ {
				got, _ := th.RecvInto(buf, core.Any, prev)
				errs[i] = checkSeq(buf[:got], k, size)
			}
		})
	}
	start(t, procs, 2*time.Minute)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("proc %d: %v", i, err)
		}
	}
}
