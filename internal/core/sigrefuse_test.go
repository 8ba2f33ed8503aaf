package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/mts"
	"repro/internal/transport"
)

// sigTap records the control frames a Mem carries — sender, tag and first
// signaling word (a REJECT's cause) — and drops those drop selects.
type sigTap struct {
	mu     sync.Mutex
	frames []tapFrame
	drop   func(m *transport.Message) bool
}

type tapFrame struct {
	from    ProcID
	tag     int
	word    uint32
	dropped bool
}

// tapMem builds a Mem whose every frame passes the tap. Fault injection at
// rate 1 hands each frame to the drop class, which drops only what the
// tap's drop selects.
func tapMem() (*transport.Mem, *sigTap) {
	mem := transport.NewMem()
	tap := &sigTap{}
	mem.SetDropRate(1, 1)
	mem.SetDropClass(func(m *transport.Message) bool {
		tap.mu.Lock()
		defer tap.mu.Unlock()
		drop := tap.drop != nil && tap.drop(m)
		if m.Tag < 0 && m.Tag != tagSigBeat {
			f := tapFrame{from: m.From, tag: m.Tag, dropped: drop}
			if _, words, _, err := parseSig(m.Data); err == nil {
				f.word = words[0]
			}
			tap.frames = append(tap.frames, f)
		}
		return drop
	})
	return mem, tap
}

func (tp *sigTap) setDrop(fn func(m *transport.Message) bool) {
	tp.mu.Lock()
	tp.drop = fn
	tp.mu.Unlock()
}

// rejects lists the causes of the REJECTs proc from sent, in order.
func (tp *sigTap) rejects(from ProcID) []CallCause {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	var causes []CallCause
	for _, f := range tp.frames {
		if f.from == from && f.tag == tagSigReject {
			causes = append(causes, CallCause(f.word))
		}
	}
	return causes
}

// count reports how many frames with tag proc from sent that were not
// dropped.
func (tp *sigTap) count(from ProcID, tag int) int {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	n := 0
	for _, f := range tp.frames {
		if f.from == from && f.tag == tag && !f.dropped {
			n++
		}
	}
	return n
}

// sendSig sends a hand-built signaling frame from t's proc to peer: the
// marshalled SigMessage for channel id under call reference ref, then words.
func sendSig(t *Thread, peer ProcID, tag int, typ atm.SigType, ref uint32, id ChannelID, words ...uint32) {
	sig := atm.SigMessage{Type: typ, CallRef: ref, Caller: int32(t.proc.cfg.ID), Called: int32(peer), Forward: atm.VC{VPI: uint8(id)}}
	t.proc.sendProcCtrl(peer, tag, sig.Marshal(), words...)
}

// defaultPair is two procs on mem with the default Config (lane count
// included) and no OnException: a peer-input fault raised as an exception
// would panic the test.
func defaultPair(t *testing.T, mem *transport.Mem, onAccept func(*Channel)) []*Proc {
	return sigCluster(t, 2, mem, func(i int, cfg *Config) {
		cfg.SendLanes, cfg.RecvLanes = 0, 0
		if i == 1 {
			cfg.OnAccept = onAccept
		}
	})
}

// keepUntilBye is proc 1's keeper: it ends on the dialer's bye and answers
// it, so by the time the dialer hears back every signaling frame it sent
// before the bye — the control band leaves ahead of data — has been judged
// and answered.
func keepUntilBye(th *Thread) {
	_, from := th.Recv(Any, 0)
	th.Send(from.Thread, 0, nil)
}

// byeAndWait is the dialer's side of keepUntilBye.
func byeAndWait(th *Thread) {
	th.Send(0, 1, nil)
	th.Recv(Any, 1)
}

// refusalCase is one callee refusal of TestSetupRefusals. setup, when set,
// runs before the threads start; dial runs on proc 0 and returns what its
// OpenCall returned (nil where no OpenCall reaches the branch); callee, when
// set, replaces proc 1's keeper.
type refusalCase struct {
	name     string
	onAccept func(*Channel)
	setup    func(procs []*Proc, tap *sigTap)
	callee   func(th *Thread)
	dial     func(th *Thread, tap *sigTap) error
	// wantErr judges dial's error; nil wants none.
	wantErr func(error) bool
	// The callee's REJECT causes, accepted SETUPs and dropped frames.
	rejects  []CallCause
	accepted int64
	bad      int64
	// check, when set, inspects the tap after the run.
	check func(t *testing.T, tap *sigTap)
}

// qosNone is a SETUP's trailing words for a call without disciplines: eight
// QoS words, the calling thread, the reserved word.
var qosNone = []uint32{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}

func refusalCases() []refusalCase {
	var held [2]*Channel // closing-proc's static channel, by proc
	return []refusalCase{
		{
			// A malformed frame is the peer's fault: a SETUP short of its
			// eight QoS words draws REJECT, and frames too short to parse
			// are dropped and counted.
			name: "short-setup",
			dial: func(th *Thread, _ *sigTap) error {
				sendSig(th, 1, tagSigSetup, atm.SigSetup, 1001, 1, 0, 0, 0, 0)
				byeAndWait(th)
				return nil
			},
			rejects: []CallCause{CauseUnsupported},
		},
		{
			name: "unparsable",
			dial: func(th *Thread, _ *sigTap) error {
				th.proc.sendProcCtrl(1, tagSigSetup, []byte{1, 2, 3})
				th.proc.sendProcCtrl(1, tagSigRelease, []byte{1, 2, 3})
				byeAndWait(th)
				return nil
			},
			bad: 2,
		},
		{
			// The ID travels as the forward VPI, an octet: MaxChannelID
			// (255) is the largest it can carry, so 0 is the one
			// out-of-range ID a SETUP can name.
			name: "channel-id-0",
			dial: func(th *Thread, _ *sigTap) error {
				sendSig(th, 1, tagSigSetup, atm.SigSetup, 1001, 0, qosNone...)
				byeAndWait(th)
				return nil
			},
			rejects: []CallCause{CauseUnsupported},
		},
		{
			// Proc 1's one thread sends on a go-back-N static channel and
			// returns. Proc 0's acks are dropped until its OpenCall is
			// answered, so proc 1 is closing, but still judging frames while
			// it retransmits; proc 0 then stays up until an ack is through.
			name: "closing-proc",
			setup: func(procs []*Proc, tap *sigTap) {
				for i, p := range procs {
					held[i] = p.Open(ProcID(1-i), ChannelConfig{ID: 1, Error: NewGoBackN(4, 10*time.Millisecond)})
				}
				tap.setDrop(func(m *transport.Message) bool { return m.From == 0 && m.Tag == tagGBNAck })
			},
			callee: func(th *Thread) { held[1].Send(th, 0, []byte{1}) },
			dial: func(th *Thread, tap *sigTap) error {
				held[0].Recv(th, Any)
				th.MT().Sleep(20 * time.Millisecond) // proc 1's thread returns
				_, err := th.proc.OpenCall(th, 1, CallConfig{})
				tap.setDrop(nil)
				for tap.count(0, tagGBNAck) == 0 {
					th.MT().Sleep(time.Millisecond)
				}
				return err
			},
			wantErr: wantOpenErr(CausePeerClosed),
			rejects: []CallCause{CausePeerClosed},
		},
		{
			name: "busy",
			dial: func(th *Thread, _ *sigTap) error {
				ch, err := th.proc.OpenCall(th, 1, CallConfig{ID: 7})
				if err != nil {
					return err
				}
				sendSig(th, 1, tagSigSetup, atm.SigSetup, ch.sigRef+1000, 7, qosNone...)
				err = ch.CloseCall(th)
				byeAndWait(th)
				return err
			},
			rejects:  []CallCause{CauseBusy},
			accepted: 1,
		},
		{
			// 2^31 is a negative int on a 32-bit callee.
			name: "window-2^31",
			dial: func(th *Thread, _ *sigTap) error {
				sendSig(th, 1, tagSigSetup, atm.SigSetup, 1001, 5, 0, 0, 1, 1<<31, 0, 0, 0, 0, 0, 0)
				byeAndWait(th)
				return nil
			},
			rejects: []CallCause{CauseUnsupported},
		},
		{
			// A go-back-N timeout under a microsecond travels as 0, which
			// the callee refuses.
			name: "gbn-timeout-0",
			dial: func(th *Thread, _ *sigTap) error {
				_, err := th.proc.OpenCall(th, 1, CallConfig{Error: NewGoBackN(8, 500*time.Nanosecond)})
				byeAndWait(th)
				return err
			},
			wantErr: wantOpenErr(CauseUnsupported),
			rejects: []CallCause{CauseUnsupported},
		},
		{
			// A CONNECT and a RELEASE under another call reference leave
			// the open call alone; the RELEASE is answered, idempotently.
			name:     "stale-callref",
			onAccept: serveCalls(1),
			dial: func(th *Thread, _ *sigTap) error {
				ch, err := th.proc.OpenCall(th, 1, CallConfig{ID: 3})
				if err != nil {
					return err
				}
				srv := dialRendezvous(th, ch)
				stale := ch.sigRef + 1000
				sendSig(th, 1, tagSigConnect, atm.SigConnect, stale, 3)
				sendSig(th, 1, tagSigRelease, atm.SigRelease, stale, 3, 0)
				ch.Send(th, srv, []byte{2})
				ch.Recv(th, Any) // served: the call survived
				err = ch.CloseCall(th)
				byeAndWait(th)
				return err
			},
			accepted: 1,
			check: func(t *testing.T, tap *sigTap) {
				if n := tap.count(1, tagSigRelComp); n != 2 {
					t.Errorf("callee sent %d RELEASE-COMPLETEs, want 2 (the stale RELEASE, the close)", n)
				}
			},
		},
	}
}

// TestSetupRefusals drives each of the callee's refusals, malformed frames
// included, over Mem, on default-configured procs with no OnException: the
// callee's counters move as expected, nothing leaks on either proc, nothing
// panics, and where a real OpenCall reaches the branch the caller gets the
// callee's cause.
func TestSetupRefusals(t *testing.T) {
	for _, tc := range refusalCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			mem, tap := tapMem()
			procs := defaultPair(t, mem, tc.onAccept)
			if tc.setup != nil {
				tc.setup(procs, tap)
			}
			var err error
			procs[0].TCreate("dial", mts.PrioDefault, func(th *Thread) { err = tc.dial(th, tap) })
			callee := tc.callee
			if callee == nil {
				callee = keepUntilBye
			}
			procs[1].TCreate("callee", mts.PrioDefault, callee)
			runReal(procs)
			if tc.wantErr == nil && err != nil {
				t.Errorf("dial: %v", err)
			}
			if tc.wantErr != nil && !tc.wantErr(err) {
				t.Errorf("dial error = %v", err)
			}
			st := procs[1].Lifecycle()
			if st.SetupsRejected != int64(len(tc.rejects)) || st.SetupsAccepted != tc.accepted {
				t.Errorf("callee rejected %d accepted %d SETUPs, want %d and %d",
					st.SetupsRejected, st.SetupsAccepted, len(tc.rejects), tc.accepted)
			}
			if st.BadSignaling != tc.bad {
				t.Errorf("callee dropped %d bad signaling frames, want %d", st.BadSignaling, tc.bad)
			}
			if got := tap.rejects(1); !slices.Equal(got, tc.rejects) {
				t.Errorf("callee REJECT causes %v, want %v", got, tc.rejects)
			}
			if tc.check != nil {
				tc.check(t, tap)
			}
			for i, p := range procs {
				if leaks := p.Leaks(); len(leaks) != 0 {
					t.Errorf("proc %d leaks: %v", i, leaks)
				}
			}
		})
	}
}
