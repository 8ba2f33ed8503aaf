package core

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/mts"
	"repro/internal/transport"
)

// sigCell names one cell of sigTable.
type sigCell struct {
	st uint32
	ev sigEvent
}

// sigHB is the transition cases' failure detector: a death is declared
// about 3 ms after the peer goes silent, well inside every retry timer.
var sigHB = Heartbeat{Interval: time.Millisecond, Misses: 2}

// sendFails sends one message on ch and returns the error the send raised.
func sendFails(th *Thread, ch *Channel) error {
	return recoverErr(func() { ch.Send(th, 0, []byte{1}) })
}

// waitUntil computes until virtual time at (no-op once past it).
func waitUntil(th *Thread, vm *VirtualMesh, at time.Duration) {
	if d := at - vm.Now(); d > 0 {
		th.Compute(d, nil)
	}
}

func wantClosedErr(err error) bool {
	var cce *ChannelClosedError
	return errors.As(err, &cce)
}

func wantDeadErr(err error) bool {
	var pd *PeerDeadError
	return errors.As(err, &pd)
}

func wantOpenErr(cause CallCause) func(error) bool {
	return func(err error) bool {
		var oe *OpenError
		return errors.As(err, &oe) && oe.Cause == cause
	}
}

// callPair is the common two-proc virtual-mesh call scenario: proc 1
// accepts with serve (nil: no serving thread) and keeps a thread that ends
// on proc 0's bye or on proc 0's death; proc 0 runs dial, then says bye.
func callPair(t *testing.T, cfg VirtualMeshConfig, serve func(vm *VirtualMesh, c *Channel, th *Thread),
	dial func(vm *VirtualMesh, th *Thread)) []*Proc {
	t.Helper()
	var vm *VirtualMesh
	if cfg.MaxTime == 0 {
		cfg.MaxTime = time.Second
	}
	if serve != nil {
		cfg.OnAccept = func(c *Channel) {
			c.Proc().TCreate("serve", mts.PrioDefault, func(th *Thread) { serve(vm, c, th) })
		}
	}
	vm = NewVirtualMesh(2, 1, cfg)
	vm.Procs[1].TCreate("keeper", mts.PrioDefault, func(th *Thread) {
		recoverErr(func() { th.Recv(Any, 0) })
	})
	vm.Procs[0].TCreate("dial", mts.PrioDefault, func(th *Thread) {
		dial(vm, th)
		recoverErr(func() { th.Send(0, 1, []byte("bye")) })
	})
	runOrFail(t, vm.Run)
	return vm.Procs
}

// memCall runs one served call over a Mem that loses the first frame
// tagged lose, and nothing else: proc 0 opens with cfg, takes the served
// byte, closes, and reports what a send then raises.
func memCall(t *testing.T, lose int, cfg CallConfig) ([]*Proc, *transport.Mem, error) {
	t.Helper()
	mem := transport.NewMem()
	lost := false // read and written under Mem's lock only
	mem.SetDropRate(1, 1)
	mem.SetDropClass(func(m *transport.Message) bool {
		drop := !lost && m.Tag == lose
		lost = lost || drop
		return drop
	})
	procs := sigCluster(t, 2, mem, func(i int, cfg *Config) {
		if i == 1 {
			cfg.OnAccept = serveCalls(0)
		}
	})
	var err error
	procs[0].TCreate("dial", mts.PrioDefault, func(th *Thread) {
		defer th.Send(0, 1, []byte("bye"))
		ch, e := procs[0].OpenCall(th, 1, cfg)
		if e != nil {
			err = e
			return
		}
		ch.Recv(th, Any) // served
		if err = ch.CloseCall(th); err == nil {
			err = sendFails(th, ch)
		}
	})
	procs[1].TCreate("keeper", mts.PrioDefault, func(th *Thread) { th.Recv(Any, Any) })
	runReal(procs)
	return procs, mem, err
}

// dialDeadPeer runs dial on proc 0 against a proc 1 that never hears from
// it (dial kills its host first); proc 1's one thread ends at once.
func dialDeadPeer(t *testing.T, cfg VirtualMeshConfig, dial func(vm *VirtualMesh, th *Thread)) []*Proc {
	t.Helper()
	cfg.MaxTime = time.Second
	vm := NewVirtualMesh(2, 1, cfg)
	vm.Procs[1].TCreate("idle", mts.PrioDefault, func(*Thread) {})
	vm.Procs[0].TCreate("dial", mts.PrioDefault, func(th *Thread) {
		vm.Net.KillHost(1)
		dial(vm, th)
	})
	runOrFail(t, vm.Run)
	return vm.Procs
}

// drainingServe is the callee of the draining cases. It sends the opener a
// message at 510 µs, just after the caller's CloseCall (at 500 µs) sent
// RELEASE, so it is still waiting for that message's ack — draining — when
// it calls CloseCall itself at 700 µs.
func drainingServe(t *testing.T) func(vm *VirtualMesh, c *Channel, th *Thread) {
	return func(vm *VirtualMesh, c *Channel, th *Thread) {
		waitUntil(th, vm, 510*time.Microsecond)
		c.Send(th, c.PeerThread(), make([]byte, 64))
		waitUntil(th, vm, 700*time.Microsecond)
		if st := c.state.Load(); st != chanDraining {
			t.Errorf("callee state at its CloseCall = %d, want draining (%d)", st, chanDraining)
		}
		if err := c.CloseCall(th); err != nil {
			t.Errorf("callee CloseCall: %v", err)
		}
	}
}

// closeAt is the caller of the draining cases: open with go-back-N, close
// at 500 µs, then report what a send raises.
func closeAt(err *error) func(vm *VirtualMesh, th *Thread) {
	return func(vm *VirtualMesh, th *Thread) {
		ch, e := vm.Procs[0].OpenCall(th, 1, CallConfig{Error: NewGoBackN(4, 2*time.Millisecond)})
		if e != nil {
			*err = e
			return
		}
		waitUntil(th, vm, 500*time.Microsecond)
		if *err = ch.CloseCall(th); *err == nil {
			*err = sendFails(th, ch)
		}
	}
}

// sigCase is one TestSigTransitions scenario: the cells it steps, a run
// returning the procs to audit and the error its subject thread observed,
// and the error it should have observed.
type sigCase struct {
	name  string
	cells []sigCell
	run   func(t *testing.T) ([]*Proc, error)
	want  func(error) bool
}

// sigTransitionCases drives every non-empty cell of sigTable.
func sigTransitionCases() []sigCase {
	gbn := func() CallConfig { return CallConfig{Error: NewGoBackN(4, 2*time.Millisecond)} }
	return []sigCase{
		{
			// A static channel's Close is local and final; the peer's death
			// then reaches it (and the default channel the beats run on).
			name:  "static-close-then-death",
			cells: []sigCell{{chanStatic, evClose}, {chanClosed, evPeerDead}, {chanStatic, evPeerDead}},
			run: func(t *testing.T) ([]*Proc, error) {
				vm := NewVirtualMesh(2, 1, VirtualMeshConfig{Heartbeat: sigHB, MaxTime: time.Second})
				ch := vm.Procs[0].Open(1, ChannelConfig{ID: 1, Error: NewGoBackN(4, 2*time.Millisecond)})
				vm.Procs[1].Open(0, ChannelConfig{ID: 1, Error: NewGoBackN(4, 2*time.Millisecond)})
				var err error
				vm.Procs[0].TCreate("t", mts.PrioDefault, func(th *Thread) {
					ch.Close()
					if !ch.Closed() {
						t.Error("static channel not Closed() after Close")
					}
					recoverErr(func() { th.Recv(Any, 1) }) // ends with the death
					err = sendFails(th, ch)
				})
				vm.Procs[1].TCreate("t", mts.PrioDefault, func(th *Thread) {
					th.Compute(time.Millisecond, nil)
					vm.Net.KillHost(1)
					recoverErr(func() { th.Recv(Any, 0) })
				})
				runOrFail(t, vm.Run)
				if vm.Procs[0].openChannel(1, 1) != ch {
					t.Error("a static channel left the table on Close or death")
				}
				return vm.Procs, err
			},
			want: wantDeadErr,
		},
		{
			name:  "reject",
			cells: []sigCell{{chanOpening, evReject}},
			run: func(t *testing.T) ([]*Proc, error) {
				var err error
				procs := callPair(t, VirtualMeshConfig{Admission: NewTokenBucketAdmission(0, 0)}, nil,
					func(vm *VirtualMesh, th *Thread) { _, err = vm.Procs[0].OpenCall(th, 1, CallConfig{}) })
				return procs, err
			},
			want: wantOpenErr(CauseAdmissionDenied),
		},
		{
			name:  "setup-budget-spent",
			cells: []sigCell{{chanOpening, evTimeout}, {chanOpening, evGiveUp}},
			run: func(t *testing.T) ([]*Proc, error) {
				var err error
				procs := dialDeadPeer(t, VirtualMeshConfig{}, func(vm *VirtualMesh, th *Thread) {
					_, err = vm.Procs[0].OpenCall(th, 1, CallConfig{SetupTimeout: time.Millisecond, Retries: 2})
				})
				var oe *OpenError
				if errors.As(err, &oe) && oe.Attempts != 2 {
					t.Errorf("attempts = %d, want 2", oe.Attempts)
				}
				return procs, err
			},
			want: wantOpenErr(CauseTimeout),
		},
		{
			// The callee's CONNECT is lost: the retried SETUP gets the
			// idempotent CONNECT, then the call runs a clean close.
			name: "lost-connect",
			cells: []sigCell{{chanOpening, evTimeout}, {chanOpening, evConnect}, {chanOpen, evClose},
				{chanClosing, evDrained}, {chanOpen, evRelease}, {chanDraining, evDrained}, {chanReleasing, evRelComp}},
			run: func(t *testing.T) ([]*Proc, error) {
				procs, _, err := memCall(t, tagSigConnect, CallConfig{SetupTimeout: 5 * time.Millisecond})
				if sent, acc := procs[0].Lifecycle().SetupsSent, procs[1].Lifecycle().SetupsAccepted; sent != 2 || acc != 1 {
					t.Errorf("SETUPs sent %d, accepted %d; want 2 and 1", sent, acc)
				}
				return procs, err
			},
			want: wantClosedErr,
		},
		{
			// Both ends close at the same instant: the RELEASEs cross.
			name:  "simultaneous-close",
			cells: []sigCell{{chanOpen, evClose}, {chanClosing, evDrained}, {chanReleasing, evRelease}},
			run: func(t *testing.T) ([]*Proc, error) {
				var err, calleeErr error
				procs := callPair(t, VirtualMeshConfig{},
					func(vm *VirtualMesh, c *Channel, th *Thread) {
						waitUntil(th, vm, time.Millisecond)
						calleeErr = c.CloseCall(th)
					},
					func(vm *VirtualMesh, th *Thread) {
						ch, e := vm.Procs[0].OpenCall(th, 1, CallConfig{})
						if e != nil {
							err = e
							return
						}
						waitUntil(th, vm, time.Millisecond)
						if err = ch.CloseCall(th); err == nil {
							err = sendFails(th, ch)
						}
					})
				if calleeErr != nil {
					t.Errorf("callee CloseCall: %v", calleeErr)
				}
				return procs, err
			},
			want: wantClosedErr,
		},
		{
			// The caller closes while a 64 KB message is still on the wire
			// (its serialization alone takes ~5 ms); the callee closes at
			// 500 µs, and its RELEASE finds the caller still draining. The
			// caller abandons the message's retransmission: the callee
			// finalizes on the caller's RELEASE-COMPLETE.
			name:  "release-while-closing",
			cells: []sigCell{{chanClosing, evRelease}, {chanReleasing, evRelComp}},
			run: func(t *testing.T) ([]*Proc, error) {
				var err error
				var abandoned int64
				procs := callPair(t, VirtualMeshConfig{},
					func(vm *VirtualMesh, c *Channel, th *Thread) {
						waitUntil(th, vm, 500*time.Microsecond)
						c.CloseCall(th)
					},
					func(vm *VirtualMesh, th *Thread) {
						ch, e := vm.Procs[0].OpenCall(th, 1, gbn())
						if e != nil {
							err = e
							return
						}
						ch.Send(th, 0, make([]byte, 64<<10))
						if err = ch.CloseCall(th); err == nil {
							err = sendFails(th, ch)
						}
						abandoned = ch.Error().(*GoBackN).Abandoned()
					})
				if abandoned != 1 {
					t.Errorf("caller abandoned %d messages, want the 1 in flight", abandoned)
				}
				return procs, err
			},
			want: wantClosedErr,
		},
		{
			// The callee is draining a message of its own when the caller's
			// RELEASE arrives, and calls CloseCall while it drains: it
			// waits for the passive teardown.
			name:  "closecall-while-draining",
			cells: []sigCell{{chanOpen, evRelease}, {chanDraining, evDrained}},
			run: func(t *testing.T) ([]*Proc, error) {
				var err error
				procs := callPair(t, VirtualMeshConfig{}, drainingServe(t), closeAt(&err))
				return procs, err
			},
			want: wantClosedErr,
		},
		{
			name:  "dead-while-opening",
			cells: []sigCell{{chanOpening, evPeerDead}, {chanStatic, evPeerDead}},
			run: func(t *testing.T) ([]*Proc, error) {
				var err error
				procs := dialDeadPeer(t, VirtualMeshConfig{Heartbeat: sigHB}, func(vm *VirtualMesh, th *Thread) {
					_, err = vm.Procs[0].OpenCall(th, 1, CallConfig{SetupTimeout: 50 * time.Millisecond, Retries: 5})
				})
				return procs, err
			},
			want: wantOpenErr(CausePeerDead),
		},
		{
			// The callee dies while the caller drains an unacknowledged
			// message; the dead end, still open, declares its peer dead too.
			name:  "dead-while-closing",
			cells: []sigCell{{chanClosing, evPeerDead}, {chanOpen, evPeerDead}},
			run: func(t *testing.T) ([]*Proc, error) {
				var err error
				procs := callPair(t, VirtualMeshConfig{Heartbeat: sigHB}, nil, func(vm *VirtualMesh, th *Thread) {
					ch, e := vm.Procs[0].OpenCall(th, 1, gbn())
					if e != nil {
						err = e
						return
					}
					vm.Net.KillHost(1)
					ch.Send(th, 0, make([]byte, 64))
					if err = ch.CloseCall(th); err == nil {
						err = sendFails(th, ch)
					}
				})
				return procs, err
			},
			want: wantDeadErr,
		},
		{
			name:  "dead-while-releasing",
			cells: []sigCell{{chanReleasing, evPeerDead}},
			run: func(t *testing.T) ([]*Proc, error) {
				var err error
				procs := callPair(t, VirtualMeshConfig{Heartbeat: sigHB}, nil, func(vm *VirtualMesh, th *Thread) {
					ch, e := vm.Procs[0].OpenCall(th, 1, CallConfig{})
					if e != nil {
						err = e
						return
					}
					vm.Net.KillHost(1) // the RELEASE is lost, and every retry
					if err = ch.CloseCall(th); err == nil {
						err = sendFails(th, ch)
					}
				})
				return procs, err
			},
			want: wantDeadErr,
		},
		{
			// As closecall-while-draining, but the caller's host dies (at
			// 535 µs, its RELEASE already delivered) while the callee
			// drains: both ends finalize through the death.
			name:  "dead-while-draining",
			cells: []sigCell{{chanDraining, evPeerDead}, {chanReleasing, evPeerDead}},
			run: func(t *testing.T) ([]*Proc, error) {
				var err error
				procs := callPair(t, VirtualMeshConfig{Heartbeat: sigHB}, drainingServe(t),
					func(vm *VirtualMesh, th *Thread) {
						vm.Eng.Schedule(535*time.Microsecond-vm.Now(), func() { vm.Net.KillHost(0) })
						closeAt(&err)(vm, th)
					})
				return procs, err
			},
			want: wantDeadErr,
		},
		{
			// The callee's RELEASE-COMPLETE is lost: the caller's RELEASE
			// retry finds the callee finalized and is answered again.
			name:  "lost-relcomp",
			cells: []sigCell{{chanReleasing, evTimeout}, {chanReleasing, evRelComp}},
			run: func(t *testing.T) ([]*Proc, error) {
				procs, mem, err := memCall(t, tagSigRelComp, CallConfig{})
				if mem.Dropped() != 1 {
					t.Errorf("dropped %d frames, want the one RELEASE-COMPLETE", mem.Dropped())
				}
				return procs, err
			},
			want: wantClosedErr,
		},
		{
			// A silent peer (its host dead): the caller's RELEASE budget
			// runs out long before its failure detector would declare the
			// peer dead, and the callee's detector closes the callee's end.
			name:  "release-budget-spent",
			cells: []sigCell{{chanReleasing, evTimeout}, {chanReleasing, evGiveUp}, {chanOpen, evClose}},
			run: func(t *testing.T) ([]*Proc, error) {
				var err error
				var vm *VirtualMesh
				vm = NewVirtualMesh(2, 1, VirtualMeshConfig{
					MaxTime:   time.Second,
					Heartbeat: Heartbeat{Interval: 100 * time.Millisecond, Misses: 3},
					OnAccept: func(c *Channel) {
						// Keep the callee running until its detector has
						// declared the caller dead (400 ms).
						c.Proc().TCreate("serve", mts.PrioDefault, func(th *Thread) { th.Compute(500*time.Millisecond, nil) })
					},
				})
				var took time.Duration
				vm.Procs[0].TCreate("dial", mts.PrioDefault, func(th *Thread) {
					ch, e := vm.Procs[0].OpenCall(th, 1, CallConfig{})
					if e != nil {
						err = e
						return
					}
					vm.Net.KillHost(1)
					start := vm.Now()
					if err = ch.CloseCall(th); err == nil {
						err = sendFails(th, ch)
					}
					took = vm.Now() - start
				})
				runOrFail(t, vm.Run)
				if took < sigMaxReleaseAttempts*sigReleaseTimeout {
					t.Errorf("CloseCall returned after %v, before %d RELEASE timeouts", took, sigMaxReleaseAttempts)
				}
				return vm.Procs, err
			},
			want: wantClosedErr,
		},
	}
}

// TestSigTransitions drives the lifecycle table cell by cell — one case per
// row no other test reaches, over the virtual mesh where timing matters and
// a lossy Mem where one signaling frame must be lost — and holds every case
// to zero leaked lifecycle state on both procs and the typed error its
// subject thread expects. The "table" subtest checks that every non-empty
// cell is named by some case.
func TestSigTransitions(t *testing.T) {
	named := map[sigCell]bool{}
	for _, tc := range sigTransitionCases() {
		tc := tc
		for _, cell := range tc.cells {
			if sigTable[cell.st][cell.ev].acts == 0 {
				t.Errorf("case %s names the empty cell %v", tc.name, cell)
			}
			named[cell] = true
		}
		t.Run(tc.name, func(t *testing.T) {
			procs, err := tc.run(t)
			if !tc.want(err) {
				t.Errorf("subject observed %v", err)
			}
			for i, p := range procs {
				if leaks := p.Leaks(); len(leaks) != 0 {
					t.Errorf("proc %d leaks: %v", i, leaks)
				}
			}
		})
	}
	t.Run("table", func(t *testing.T) {
		for st := range sigTable {
			for ev, row := range sigTable[st] {
				if cell := (sigCell{uint32(st), sigEvent(ev)}); row.acts != 0 && !named[cell] {
					t.Errorf("no case drives cell (state %d, event %d)", st, ev)
				}
			}
		}
	})
}

// TestCloseThenPeerCloseCall: Close on a signaled channel runs the close
// handshake, so the peer's CloseCall that follows finds its end already
// finalized and neither proc leaks.
func TestCloseThenPeerCloseCall(t *testing.T) {
	var calleeErr error
	var closed bool
	procs := callPair(t, VirtualMeshConfig{},
		func(vm *VirtualMesh, c *Channel, th *Thread) {
			waitUntil(th, vm, time.Millisecond)
			calleeErr = c.CloseCall(th)
		},
		func(vm *VirtualMesh, th *Thread) {
			ch, err := vm.Procs[0].OpenCall(th, 1, CallConfig{})
			if err != nil {
				t.Errorf("OpenCall: %v", err)
				return
			}
			waitUntil(th, vm, 500*time.Microsecond)
			ch.Close()
			if !wantClosedErr(sendFails(th, ch)) {
				t.Error("send after Close did not fail with *ChannelClosedError")
			}
			waitUntil(th, vm, 2*time.Millisecond)
			closed = ch.Closed()
		})
	if calleeErr != nil {
		t.Errorf("peer CloseCall: %v", calleeErr)
	}
	if !closed {
		t.Error("closed channel never finalized")
	}
	for i, p := range procs {
		if leaks := p.Leaks(); len(leaks) != 0 {
			t.Errorf("proc %d leaks: %v", i, leaks)
		}
	}
}

// TestCloseThenCloseCall: a CloseCall after Close on the same end waits for
// the handshake Close started and returns nil — within a bounded virtual
// run, which panics (and fails the test) if the thread parks for good.
func TestCloseThenCloseCall(t *testing.T) {
	var closeErr error
	returned := false
	procs := callPair(t, VirtualMeshConfig{}, nil, func(vm *VirtualMesh, th *Thread) {
		ch, err := vm.Procs[0].OpenCall(th, 1, CallConfig{})
		if err != nil {
			t.Errorf("OpenCall: %v", err)
			return
		}
		ch.Close()
		closeErr = ch.CloseCall(th)
		returned = true
	})
	if !returned || closeErr != nil {
		t.Fatalf("CloseCall after Close: returned %v, error %v", returned, closeErr)
	}
	for i, p := range procs {
		if leaks := p.Leaks(); len(leaks) != 0 {
			t.Errorf("proc %d leaks: %v", i, leaks)
		}
	}
}

// setupFrame is a SETUP frame payload as onSigMsg receives it: the
// marshalled SigMessage, then the words.
func setupFrame(words ...uint32) []byte {
	b := atm.SigMessage{Type: atm.SigSetup, CallRef: 1, Caller: 0, Called: 1, Forward: atm.VC{VPI: 1}}.Marshal()
	for _, w := range words {
		b = append(b, byte(w>>24), byte(w>>16), byte(w>>8), byte(w))
	}
	return b
}

// TestCallWordsRange: a hostile SETUP's count words are refused, not handed
// to a constructor, on every GOARCH — 2^31 is a negative int on a 32-bit
// callee — and in-range words still decode.
func TestCallWordsRange(t *testing.T) {
	const big = 1 << 31
	for _, tc := range []struct {
		name  string
		words []uint32
		ok    bool
	}{
		{"window-2^31", []uint32{0, 0, 1, big, 0, 0, 0, 0}, false},
		{"gbn-window-2^31", []uint32{0, 0, 0, 0, 0, 1, big, 1}, false},
		{"sr-window-2^31", []uint32{0, 0, 0, 0, 0, 2, big, 1}, false},
		{"weight-2^31", []uint32{0, big, 0, 0, 0, 0, 0, 0}, false},
		{"priority-2^31", []uint32{big, 0, 0, 0, 0, 0, 0, 0}, false},
		{"priority-8", []uint32{NumChannelPriorities, 0, 0, 0, 0, 0, 0, 0}, false},
		{"max-in-range", []uint32{7, math.MaxInt32, 1, math.MaxInt32, 1, 2, math.MaxInt32, 1}, true},
	} {
		_, _, _, _, ok := decodeCallWords(tc.words)
		if ok != tc.ok {
			t.Errorf("%s: decode ok = %v, want %v", tc.name, ok, tc.ok)
		}
	}
}

// FuzzCallWords drives the callee's SETUP decode — parseSig, then
// decodeCallWords, exactly as onSigMsg and onSetup run them — with a
// marshalled atm.SigMessage followed by up to 10 words. It never panics;
// whatever it accepts has its priority in range and a weight >= 0; and
// re-encoding an accepted configuration decodes to the same one.
func FuzzCallWords(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		_, words, nw, err := parseSig(b)
		if err != nil {
			return
		}
		prio, weight, fc, ec, ok := decodeCallWords(words[:nw])
		if !ok {
			return
		}
		if prio < 0 || prio >= NumChannelPriorities || weight < 0 {
			t.Fatalf("accepted priority %d, weight %d", prio, weight)
		}
		again, ok := encodeCallWords(CallConfig{Priority: prio, Weight: weight, Flow: fc, Error: ec})
		if !ok {
			t.Fatalf("accepted disciplines %T/%T do not encode", fc, ec)
		}
		prio2, weight2, fc2, ec2, ok := decodeCallWords(again[:])
		if !ok || prio2 != prio || weight2 != weight || !reflect.DeepEqual(fc2, fc) || !reflect.DeepEqual(ec2, ec) {
			t.Fatalf("round trip of %v: got (%d, %d, %+v, %+v, %v), want (%d, %d, %+v, %+v)",
				words[:8], prio2, weight2, fc2, ec2, ok, prio, weight, fc, ec)
		}
	})
}
