package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/mts"
	"repro/internal/transport"
)

// runOrFail runs a discrete-event engine, turning its deadlock or MaxTime
// panic — a receiver nothing ever woke — into a test failure.
func runOrFail(t *testing.T, run func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("run did not complete: %v", r)
		}
	}()
	run()
}

// TestRecvMatchOrdersAgree: the store scan and dispatchData decide through
// one recvPattern.match, so a receive takes the same message, with the same
// source index, whether it parked before the arrivals or found them all
// stored.
func TestRecvMatchOrdersAgree(t *testing.T) {
	// One arrival sequence, every message addressed to proc 0's thread 0.
	arrivals := []struct {
		from   ProcID
		thread int
		tag    int
		ch     ChannelID
		data   string
	}{
		{1, 0, 7, 0, "a"},
		{2, 1, 3, 0, "b"},
		{3, 2, 5, 0, "c"},
		{1, 1, 5, 2, "d"},
		{2, 0, 5, 0, "e"},
		{1, 1, 5, 0, "f"},
	}
	cases := []struct {
		name string
		pat  recvPattern
		want string
		idx  int
	}{
		{"exact", recvPattern{tag: Any, from: []Addr{{Proc: 2, Thread: 0}}}, "e", 0},
		{"any-thread", recvPattern{tag: Any, from: []Addr{{Proc: 2, Thread: Any}}}, "b", 0},
		{"any-proc", recvPattern{tag: Any, from: []Addr{{Proc: Any, Thread: 2}}}, "c", 0},
		{"any-any", recvPattern{tag: Any, from: []Addr{{Proc: Any, Thread: Any}}}, "a", 0},
		{"exact-tag", recvPattern{tag: 5, from: []Addr{{Proc: Any, Thread: Any}}}, "c", 0},
		{"set-of-three", recvPattern{tag: 5, from: []Addr{{Proc: 1, Thread: 0}, {Proc: 2, Thread: Any}, {Proc: 3, Thread: 9}}}, "e", 1},
		{"other-channel", recvPattern{ch: 2, tag: Any, from: []Addr{{Proc: 1, Thread: Any}}}, "d", 0},
		{"channel-mismatch", recvPattern{tag: Any, from: []Addr{{Proc: 1, Thread: 1}}}, "f", 0},
	}
	run := func(t *testing.T, pat recvPattern, parkFirst bool) (got string, idx int) {
		eng, procs := simCluster(t, 1, nil)
		p := procs[0]
		deliver := func(th *Thread) {
			for _, a := range arrivals {
				p.dispatchData(th.mt, &transport.Message{
					From: a.from, FromThread: a.thread, Tag: a.tag, Channel: a.ch, Data: []byte(a.data),
				})
			}
		}
		p.TCreate("recv", mts.PrioDefault, func(th *Thread) {
			if !parkFirst {
				deliver(th)
			}
			m, i := th.recvAnyOf(pat)
			got, idx = string(m.Data), i
		})
		if parkFirst {
			p.TCreate("deliver", mts.PrioDefault, deliver)
		}
		runOrFail(t, eng.Run)
		return got, idx
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, parkFirst := range []bool{true, false} {
				if got, idx := run(t, tc.pat, parkFirst); got != tc.want || idx != tc.idx {
					t.Errorf("parked first %v: took %q from entry %d, want %q from entry %d",
						parkFirst, got, idx, tc.want, tc.idx)
				}
			}
		})
	}
}

// TestGatherDuplicateSourceKeepsOrder: Thread.Gather over [B, A, C, A] with
// arrivals b, a1, c, a2 fills A's two slots in send order. The collection
// loop removes matched entries in order; a swap-removing loop would move A's
// second entry ahead of its first when b completes, and put a2 in slot 1.
func TestGatherDuplicateSourceKeepsOrder(t *testing.T) {
	eng, procs := simCluster(t, 4, nil)
	var gathered [][]byte
	procs[0].TCreate("root", mts.PrioDefault, func(th *Thread) {
		gathered = th.Gather([]Addr{{Proc: 2}, {Proc: 1}, {Proc: 3}, {Proc: 1}})
	})
	// Each source sends its payloads at the given instants (ms).
	for proc, sends := range map[ProcID][]struct {
		at   int
		data string
	}{
		2: {{0, "b"}},
		1: {{2, "a1"}, {6, "a2"}},
		3: {{4, "c"}},
	} {
		proc, sends := proc, sends
		procs[proc].TCreate("src", mts.PrioDefault, func(th *Thread) {
			now := 0
			for _, s := range sends {
				th.Compute(time.Duration(s.at-now)*time.Millisecond, nil)
				now = s.at
				th.Send(0, 0, []byte(s.data))
			}
		})
	}
	runOrFail(t, eng.Run)
	want := []string{"b", "a1", "c", "a2"}
	for i, w := range want {
		if i >= len(gathered) || string(gathered[i]) != w {
			t.Fatalf("gathered %q, want %q", gathered, want)
		}
	}
}

// TestRecvDoomTable drives the one doomed predicate through both of its
// entry points — the check a receive makes before it parks ("entry"), and
// the sweep that wakes one already parked ("parked") — over every way a
// pattern is doomed or spared. Proc 0's thread 0 receives; its thread 1
// applies the doom: death records, a Close, a finalize. Proc 2 sends thread
// 0 one default-channel message at 10 ms, which a spared receive completes
// with.
func TestRecvDoomTable(t *testing.T) {
	kill := func(peers ...ProcID) func(*Proc, *Channel) {
		return func(p *Proc, _ *Channel) {
			for _, peer := range peers {
				p.peerDead(peer, &PeerDeadError{Local: p.ID(), Peer: peer})
			}
		}
	}
	recvFrom := func(proc ProcID) func(*Thread, *Channel) Addr {
		return func(th *Thread, _ *Channel) Addr {
			_, from := th.Recv(Any, proc)
			return from
		}
	}
	anyOf := func(th *Thread, _ *Channel) Addr {
		m, _ := th.recvAnyOf(recvPattern{tag: Any, from: []Addr{{Proc: 1, Thread: Any}, {Proc: 2, Thread: Any}}})
		return srcOf(m)
	}
	onChannel := func(th *Thread, ch *Channel) Addr {
		_, from := ch.Recv(th, Any)
		return from
	}
	cases := []struct {
		name string
		recv func(*Thread, *Channel) Addr
		doom func(*Proc, *Channel)
		want string // "dead", "closed", or "" for completing from proc 2
	}{
		{"dead-source", recvFrom(1), kill(1), "dead"},
		{"any-keeper", recvFrom(Any), kill(1), ""},
		{"set-partly-dead", anyOf, kill(1), ""},
		{"set-wholly-dead", anyOf, kill(1, 2), "dead"},
		{"closed-channel", onChannel, func(_ *Proc, ch *Channel) { ch.Close() }, "closed"},
		{"finalized-channel", onChannel, func(p *Proc, ch *Channel) {
			ch.state.Store(chanClosed) // the terminal transition, by hand
			p.finalizeChannel(ch, chanStatic)
		}, "closed"},
	}
	for _, tc := range cases {
		for _, mode := range []string{"entry", "parked"} {
			tc, entry := tc, mode == "entry"
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				eng, procs := simCluster(t, 3, nil)
				p := procs[0]
				ch := p.Open(1, ChannelConfig{ID: 3})
				var from Addr
				var err error
				recv := p.TCreate("recv", mts.PrioDefault, func(th *Thread) {
					if entry {
						th.Block()
					}
					err = recoverErr(func() { from = tc.recv(th, ch) })
				})
				p.TCreate("doom", mts.PrioDefault, func(th *Thread) {
					tc.doom(p, ch)
					if entry {
						th.Unblock(recv)
					}
				})
				procs[1].TCreate("idle", mts.PrioDefault, func(*Thread) {})
				procs[2].TCreate("live", mts.PrioDefault, func(th *Thread) {
					th.Compute(10*time.Millisecond, nil)
					th.Send(0, 0, []byte("live"))
				})
				runOrFail(t, eng.Run)
				var pd *PeerDeadError
				var cce *ChannelClosedError
				switch {
				case tc.want == "" && (err != nil || from.Proc != 2):
					t.Fatalf("spared receive: error %v, from %+v; want the message from proc 2", err, from)
				case tc.want == "dead" && !(errors.As(err, &pd) && pd.Peer == 1):
					t.Fatalf("receive error = %v, want *PeerDeadError for proc 1", err)
				case tc.want == "closed" && !(errors.As(err, &cce) && cce.Peer == 1 && cce.ID == 3):
					t.Fatalf("receive error = %v, want *ChannelClosedError for channel 3 to proc 1", err)
				}
			})
		}
	}
}

// TestRecvClosedChannelWakes: a receiver parked on a channel its own end
// closes wakes with *ChannelClosedError, whichever path closes it — Close,
// the caller's CloseCall, the peer's CloseCall — and a
// receive on an already-closed channel returns what was stored before the
// close, then fails at once instead of parking.
func TestRecvClosedChannelWakes(t *testing.T) {
	wantClosed := func(t *testing.T, err error, local, peer ProcID) {
		t.Helper()
		var cce *ChannelClosedError
		if !errors.As(err, &cce) || cce.Local != local || cce.Peer != peer {
			t.Fatalf("receive error = %v, want *ChannelClosedError{Local %d, Peer %d}", err, local, peer)
		}
	}
	t.Run("close", func(t *testing.T) {
		vm := NewVirtualMesh(2, 1, VirtualMeshConfig{MaxTime: time.Second})
		ch := vm.Procs[0].Open(1, ChannelConfig{ID: 1})
		var err error
		vm.Procs[0].TCreate("recv", mts.PrioDefault, func(th *Thread) {
			err = recoverErr(func() { ch.Recv(th, Any) })
		})
		vm.Procs[0].TCreate("closer", mts.PrioDefault, func(th *Thread) {
			th.Compute(time.Millisecond, nil) // the sibling parks
			ch.Close()
		})
		vm.Procs[1].TCreate("idle", mts.PrioDefault, func(*Thread) {})
		runOrFail(t, vm.Run)
		wantClosed(t, err, 0, 1)
	})
	t.Run("stored-before-close", func(t *testing.T) {
		vm := NewVirtualMesh(2, 1, VirtualMeshConfig{MaxTime: time.Second})
		ch0 := vm.Procs[0].Open(1, ChannelConfig{ID: 1})
		ch1 := vm.Procs[1].Open(0, ChannelConfig{ID: 1})
		var got []string
		var err error
		vm.Procs[0].TCreate("recv", mts.PrioDefault, func(th *Thread) {
			th.Compute(5*time.Millisecond, nil) // both messages arrive and are stored
			ch0.Close()
			err = recoverErr(func() {
				for {
					data, _ := ch0.Recv(th, Any)
					got = append(got, string(data))
				}
			})
		})
		vm.Procs[1].TCreate("send", mts.PrioDefault, func(th *Thread) {
			ch1.Send(th, 0, []byte("a"))
			ch1.Send(th, 0, []byte("b"))
		})
		runOrFail(t, vm.Run)
		if len(got) != 2 || got[0] != "a" || got[1] != "b" {
			t.Fatalf("received %q after the close, want the two stored messages", got)
		}
		wantClosed(t, err, 0, 1)
	})
	t.Run("closecall-caller", func(t *testing.T) {
		vm := NewVirtualMesh(2, 1, VirtualMeshConfig{MaxTime: time.Second})
		p := vm.Procs[0]
		var err, callErr error
		p.TCreate("dial", mts.PrioDefault, func(th *Thread) {
			defer th.Send(0, 1, []byte("bye"))
			ch, e := p.OpenCall(th, 1, CallConfig{})
			if e != nil {
				callErr = e
				return
			}
			p.TCreate("sibling", mts.PrioDefault, func(sib *Thread) {
				err = recoverErr(func() { ch.Recv(sib, Any) })
			})
			th.Compute(time.Millisecond, nil) // the sibling parks
			callErr = ch.CloseCall(th)
		})
		vm.Procs[1].TCreate("keeper", mts.PrioDefault, func(th *Thread) { th.Recv(Any, 0) })
		runOrFail(t, vm.Run)
		if callErr != nil {
			t.Fatalf("call: %v", callErr)
		}
		wantClosed(t, err, 0, 1)
	})
	t.Run("closecall-callee", func(t *testing.T) {
		var err, callErr error
		vm := NewVirtualMesh(2, 1, VirtualMeshConfig{MaxTime: time.Second, OnAccept: func(c *Channel) {
			c.Proc().TCreate("serve", mts.PrioDefault, func(th *Thread) {
				err = recoverErr(func() { c.Recv(th, Any) })
			})
		}})
		p := vm.Procs[0]
		p.TCreate("dial", mts.PrioDefault, func(th *Thread) {
			defer th.Send(0, 1, []byte("bye"))
			ch, e := p.OpenCall(th, 1, CallConfig{})
			if e != nil {
				callErr = e
				return
			}
			th.Compute(time.Millisecond, nil) // the serving thread parks
			callErr = ch.CloseCall(th)
		})
		vm.Procs[1].TCreate("keeper", mts.PrioDefault, func(th *Thread) { th.Recv(Any, 0) })
		runOrFail(t, vm.Run)
		if callErr != nil {
			t.Fatalf("call: %v", callErr)
		}
		wantClosed(t, err, 1, 0)
	})
}
