package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/atm"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file is the signaled channel lifecycle: Proc.Open's static,
// both-ends-agree channel model wired through the SVC signaling story the
// paper's NYNET substrate provides (atm.SigMessage, the Q.2931-flavoured
// SETUP/CONNECT/RELEASE family, carried end to end on the control band of
// channel 0). OpenCall performs a blocking end-to-end call setup — the callee
// allocates the VC and discipline state, the caller gets a live channel or
// a typed rejection — and CloseCall performs a signaled close handshake
// that drains in-flight data on both ends before either releases its VC,
// discipline, flush-wheel, and lane-scheduler state.
//
// A channel's whole lifecycle is one value, Channel.state, moved only by
// sigStep through one table, sigTable: (state, event) → (actions, next).
// Every signaling message, timer, close call and peer death reduces to
// "decode, find the channel, step".
//
//	STATIC ──close──► CLOSED                          (Proc.Open, default channels)
//	OPENING ──CONNECT──► OPEN ──close──► CLOSING ──drained: RELEASE──► RELEASING
//	OPENING ──REJECT, SETUP budget spent──► CLOSED    (timeout with budget left: SETUP again)
//	OPEN ──RELEASE──► DRAINING ──drained: RELEASE-COMPLETE──► CLOSED
//	CLOSING, RELEASING ──RELEASE: RELEASE-COMPLETE──► CLOSED
//	RELEASING ──RELEASE-COMPLETE, RELEASE budget spent──► CLOSED (timeout: RELEASE again)
//	every state but CLOSED ──peer dead──► CLOSED
//
// While CLOSING, RELEASING or DRAINING, new sends fail with
// *ChannelClosedError but the receiver role stays live, so the peer can
// drain. Every transition is balance-counted (channels opened == closed, VCs
// bound == released, ...) so churn scenarios can assert zero leaked state;
// see Proc.Lifecycle and Proc.Leaks. Everything here runs in the scheduler
// domain — frames arrive through the lane drain, timers ride the runtime's
// After — so it is deterministic on a virtual mesh, and only Channel.state,
// which lane engines read, needs to be atomic.

// Signaling control tags (continuing the reserved negative tag space of
// core.go). The wire codec carries tags as int32, so negatives survive the
// trip.
const (
	tagSigSetup   = -6
	tagSigConnect = -7
	tagSigReject  = -8
	tagSigRelease = -9
	tagSigRelComp = -10
)

// isSigTag reports whether tag is one of the signaling control tags
// (including the heartbeat, tagSigBeat in failure.go).
func isSigTag(tag int) bool { return tag <= tagSigSetup && tag >= tagSigBeat }

// ---------------------------------------------------------------------------
// The lifecycle table

// Channel lifecycle states (Channel.state), ordered so that >= chanClosing
// means new sends fail.
const (
	chanStatic    uint32 = iota // Proc.Open or default channel: signaling never touches it
	chanOpening                 // caller end: SETUP sent, waiting for CONNECT or REJECT
	chanOpen                    // data flows both ways
	chanClosing                 // this end closes: sends fail, the sender side drains, then RELEASE
	chanReleasing               // RELEASE sent, retried until RELEASE-COMPLETE
	chanDraining                // the peer's RELEASE arrived: drain, then RELEASE-COMPLETE
	chanClosed                  // terminal
	numChanStates
)

// sigEvent is one input to the lifecycle table.
type sigEvent uint8

const (
	evConnect  sigEvent = iota // CONNECT for the channel's call reference
	evReject                   // REJECT for it (cause: the callee's)
	evTimeout                  // a retry timer fired with attempts left: SETUP while opening, RELEASE while releasing
	evGiveUp                   // a retry timer fired with the budget spent (cause: timeout)
	evClose                    // CloseCall or Close
	evDrained                  // the sender side has drained (pollDrain)
	evRelease                  // the peer's RELEASE
	evRelComp                  // the peer's RELEASE-COMPLETE
	evPeerDead                 // the failure detector declared the peer dead (cause: peer-dead)
	numSigEvents
)

// sigAct is a set of transition actions. sigStep runs a row's actions in
// the order they are declared here.
type sigAct uint16

const (
	actAbandon sigAct = 1 << iota // error control abandons its window; a dead peer's record becomes the send error (before the state moves)
	actCause                      // record the event's cause: why the call failed, or what the RELEASE carries
	actOpened                     // count the open, bind the VC
	actSetup                      // SETUP again, next attempt, and arm its timer
	actShut                       // flush pending control, stop the flow timers, fail the queued sends
	actSweep                      // the closed-channel sweep (finalizeChannel runs it too)
	actDrain                      // poll until the sender side drains
	actRelease                    // RELEASE; entering or staying in RELEASING, next attempt and its timer
	actFinal                      // the terminal teardown (finalizeChannel)
	actRelComp                    // answer RELEASE-COMPLETE
	actWake                       // wake the thread parked in OpenCall
)

// sigRow is one cell of sigTable: what to do, and the state to enter.
type sigRow struct {
	acts sigAct
	next uint32
}

// sigTable is the whole lifecycle. An empty cell ignores its event: a late
// or duplicate message, a close of a channel already closing (CloseCall and
// Close then just wait for, or return before, the end), a RELEASE racing
// this end's own finalize (the peer's retry finds the channel gone and is
// answered), a RELEASE reaching a caller still opening (its SETUP retry
// resolves the call).
var sigTable = [numChanStates][numSigEvents]sigRow{
	chanStatic: {
		evClose:    {actShut | actSweep, chanClosed},
		evPeerDead: {actAbandon | actFinal, chanClosed},
	},
	chanOpening: {
		evConnect: {actOpened | actWake, chanOpen},
		evReject:  {actCause | actFinal | actWake, chanClosed},
		evTimeout: {actSetup, chanOpening},
		// One RELEASE, not retried: undoes a callee whose CONNECT was lost.
		evGiveUp:   {actCause | actRelease | actFinal | actWake, chanClosed},
		evPeerDead: {actAbandon | actCause | actFinal | actWake, chanClosed},
	},
	chanOpen: {
		evClose:    {actShut | actDrain, chanClosing},
		evRelease:  {actShut | actDrain, chanDraining},
		evPeerDead: {actAbandon | actFinal, chanClosed},
	},
	chanClosing: {
		evDrained: {actRelease, chanReleasing},
		// Simultaneous close: the peer finalizes on this end's
		// RELEASE-COMPLETE, so what is still unacknowledged from this end
		// would be retransmitted to nobody. The drain is cut short.
		evRelease:  {actAbandon | actFinal | actRelComp, chanClosed},
		evPeerDead: {actAbandon | actFinal, chanClosed},
	},
	chanReleasing: {
		evTimeout:  {actRelease, chanReleasing},
		evGiveUp:   {actFinal, chanClosed},
		evRelease:  {actFinal | actRelComp, chanClosed},
		evRelComp:  {actFinal, chanClosed},
		evPeerDead: {actAbandon | actFinal, chanClosed},
	},
	chanDraining: {
		// Finalize before answering: the instant RELEASE-COMPLETE reaches the
		// peer it may reuse this channel ID for a fresh SETUP, which must not
		// find the old entry still in the table.
		evDrained:  {actFinal | actRelComp, chanClosed},
		evPeerDead: {actAbandon | actFinal, chanClosed},
	},
	chanClosed: {
		// A static channel Close left in the table stops retransmitting.
		evPeerDead: {actAbandon, chanClosed},
	},
}

// sigStep is the one place a channel's lifecycle moves: it looks (state,
// event) up in sigTable, stores the row's next state and runs the row's
// actions. A timeout with the retry budget spent (SETUP: CallConfig.Retries;
// RELEASE: sigMaxReleaseAttempts) steps as evGiveUp. Actions that send or
// tear down drain lanes inline, so a nested step may overtake the row; only
// the drain poll needs to check. Scheduler domain.
func (p *Proc) sigStep(c *Channel, ev sigEvent, cause CallCause) {
	from := c.state.Load()
	if ev == evTimeout {
		budget := sigMaxReleaseAttempts
		if from == chanOpening {
			budget = c.call.cfg.Retries
		}
		if c.attempt >= budget {
			ev = evGiveUp
		}
	}
	row := sigTable[from][ev]
	a := row.acts
	if a == 0 {
		return
	}
	if a&actAbandon != 0 {
		// The death record goes in before the state that fails sends, so a
		// lane engine failing one reports the typed cause.
		ln := c.lockLane()
		c.deadErr = p.deadPeers[c.peer]
		c.errc.abandon()
		ln.mu.Unlock()
	}
	c.state.Store(row.next)
	if a&actCause != 0 {
		c.cause = cause
	}
	if a&actOpened != 0 {
		p.markOpen(c)
	}
	if a&actSetup != 0 {
		p.sendSetup(c)
	}
	if a&actShut != 0 {
		ln := c.lockLane()
		c.flushCtrl()
		c.flow.shutdown()
		ln.failSendsLocked(c)
		ln.leave()
	}
	if a&actSweep != 0 {
		p.closedSweep(c)
	}
	if a&actDrain != 0 && c.state.Load() == row.next {
		p.pollDrain(c)
	}
	if a&actRelease != 0 {
		p.sendRelease(c)
		if row.next == chanReleasing {
			c.attempt++
			p.armRetry(c, sigReleaseTimeout+sigJitter(uint32(p.cfg.ID), c.sigRef, uint32(c.attempt), sigReleaseTimeout/2))
		}
	}
	if a&actFinal != 0 {
		p.finalizeChannel(c, from)
	}
	if a&actRelComp != 0 {
		p.sendRelComp(c.peer, c.id, c.sigRef)
	}
	if a&actWake != 0 {
		p.wakeIfIdle(c.call.caller.mt, "ncs call")
	}
}

// sigAfter runs fn after d unless the channel has moved on meanwhile, to
// another state or retry attempt: the one stale-timer guard of the SETUP
// and RELEASE retries and the drain poll.
func (p *Proc) sigAfter(c *Channel, d time.Duration, fn func()) {
	st, at := c.state.Load(), c.attempt
	p.after(d, func() {
		if c.state.Load() == st && c.attempt == at {
			fn()
		}
	})
}

// armRetry arms the current attempt's retry timer.
func (p *Proc) armRetry(c *Channel, d time.Duration) {
	p.sigAfter(c, d, func() { p.sigStep(c, evTimeout, CauseTimeout) })
}

// CallCause classifies why a call setup was rejected or a channel released
// — the RELEASE/REJECT cause codes of the signaling protocol, surfaced as
// the typed failure in OpenError.
type CallCause uint8

// Call rejection / release causes.
const (
	CauseNone CallCause = iota
	// CauseAdmissionDenied: the callee's AdmissionPolicy refused the call.
	CauseAdmissionDenied
	// CauseBusy: the requested channel ID is already in use (or no ID is
	// free) between this process pair.
	CauseBusy
	// CauseTimeout: no CONNECT or REJECT within the retry budget — the peer
	// is unreachable, dead, or overloaded past responding.
	CauseTimeout
	// CauseUnsupported: the callee could not decode the requested QoS
	// (unknown discipline, invalid parameters).
	CauseUnsupported
	// CausePeerClosed: the callee process is shutting down.
	CausePeerClosed
	// CausePeerDead: the heartbeat failure detector declared the peer dead
	// (see failure.go); outstanding call setups toward it fail with this.
	CausePeerDead
)

func (c CallCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseAdmissionDenied:
		return "admission-denied"
	case CauseBusy:
		return "busy"
	case CauseTimeout:
		return "timeout"
	case CauseUnsupported:
		return "unsupported"
	case CausePeerClosed:
		return "peer-closed"
	case CausePeerDead:
		return "peer-dead"
	default:
		return fmt.Sprintf("cause(%d)", uint8(c))
	}
}

// OpenError is OpenCall's typed failure: the signaling cause plus how many
// SETUP attempts were spent.
type OpenError struct {
	Peer     ProcID
	ID       ChannelID
	Cause    CallCause
	Attempts int
}

func (e *OpenError) Error() string {
	return fmt.Sprintf("core: open channel %d to proc %d failed after %d attempt(s): %s",
		e.ID, e.Peer, e.Attempts, e.Cause)
}

// ChannelClosedError reports a send on a closed (or closing) channel, or a
// receive that can never complete because this end closed (or finalized)
// the channel it waits on. Send returns it — a send refused at entry and a
// queued send the close sweep fails alike, once each — uniformly across all
// disciplines and execution paths. A receive, and a Group op, keeps its
// result list and unwinds its own thread with it as the panic value.
type ChannelClosedError struct {
	Local, Peer ProcID
	ID          ChannelID
}

func (e *ChannelClosedError) Error() string {
	return fmt.Sprintf("core(proc %d): channel %d to proc %d is closed", e.Local, e.ID, e.Peer)
}

// Setup handshake defaults (see CallConfig).
const (
	DefaultSetupTimeout = 10 * time.Millisecond
	DefaultSetupRetries = 3
)

// Release-handshake tuning: how long the closing end waits for
// RELEASE-COMPLETE before retransmitting RELEASE, and how many attempts it
// spends before force-finalizing against an unresponsive peer.
const (
	sigReleaseTimeout     = 10 * time.Millisecond
	sigMaxReleaseAttempts = 10
)

// sigDrainPoll is the close handshake's drain-check period: how often a
// closing or draining channel re-checks that its send queue, flow tier, and
// error tier have gone empty before the RELEASE (or RELEASE-COMPLETE) may
// be sent.
const sigDrainPoll = 200 * time.Microsecond

// CallConfig parameterizes OpenCall: the ChannelConfig QoS selection plus
// the setup handshake's retry budget. The Flow/Error instances configure
// *this* end; their parameters travel in the SETUP so the callee builds
// matching disciplines (only the built-in disciplines — WindowFlow,
// RateFlow, GoBackN, or none — can travel; anything else, or a GoBackN
// window above maxCallErrWindow, fails with CauseUnsupported).
type CallConfig struct {
	// ID requests a specific channel ID (1..MaxChannelID); 0 lets the
	// caller pick the lowest free ID toward the peer.
	ID ChannelID
	// Priority and Lane: as ChannelConfig.
	Priority int
	Lane     int
	// Flow and Error select the disciplines, as ChannelConfig.
	Flow  FlowControl
	Error ErrorControl
	// SetupTimeout is the per-attempt wait for CONNECT/REJECT; 0 selects
	// DefaultSetupTimeout.
	SetupTimeout time.Duration
	// Retries is the total SETUP attempt budget (first transmission
	// included); 0 selects DefaultSetupRetries.
	Retries int
	// Backoff is the extra delay added per retry attempt (linear, plus a
	// deterministic per-call jitter so synchronized callers spread out);
	// 0 selects SetupTimeout/2.
	Backoff time.Duration
}

// ---------------------------------------------------------------------------
// Admission control

// AdmissionPolicy is the callee-side seam judging incoming SETUPs; a nil
// Config.Admission admits everything. Admit runs in the callee's scheduler
// domain, so implementations need no locking; now is the scheduler clock
// (virtual on a virtual mesh), injected so policies never touch the
// wall clock. Admit returning false rejects the call with the given cause
// (CauseNone maps to CauseAdmissionDenied).
type AdmissionPolicy interface {
	Admit(peer ProcID, id ChannelID, now time.Duration) (bool, CallCause)
}

// TokenBucketAdmission admits calls at a sustained rate with a burst
// allowance: each admitted call costs one token, tokens refill at
// ratePerSec up to burst. Overload fails fast with CauseAdmissionDenied
// instead of queueing.
type TokenBucketAdmission struct {
	rate, burst float64
	tokens      float64
	last        time.Duration
	primed      bool
}

// NewTokenBucketAdmission builds a token-bucket policy; the bucket starts
// full.
func NewTokenBucketAdmission(ratePerSec, burst float64) *TokenBucketAdmission {
	return &TokenBucketAdmission{rate: ratePerSec, burst: burst, tokens: burst}
}

// Admit implements AdmissionPolicy.
func (a *TokenBucketAdmission) Admit(_ ProcID, _ ChannelID, now time.Duration) (bool, CallCause) {
	if a.primed {
		if dt := (now - a.last).Seconds(); dt > 0 {
			a.tokens += dt * a.rate
			if a.tokens > a.burst {
				a.tokens = a.burst
			}
		}
	}
	a.primed = true
	a.last = now
	if a.tokens < 1 {
		return false, CauseAdmissionDenied
	}
	a.tokens--
	return true, CauseNone
}

// ---------------------------------------------------------------------------
// Caller side: OpenCall

// sigCall is what the caller end of a signaled channel keeps for its
// SETUP retries and its OpenCall: the call's configuration and the thread
// parked until CONNECT or a failure. Its presence (Channel.call) marks the
// caller end.
type sigCall struct {
	cfg    CallConfig
	caller *Thread
}

// OpenCall opens a signaled channel to peer: it sends SETUP through the
// signaling band, parks the calling thread until the callee answers
// CONNECT (returning the live channel) or REJECT (returning *OpenError
// with the callee's cause), retransmitting with linear jittered backoff up
// to cfg.Retries attempts before giving up with CauseTimeout. Unlike
// Proc.Open, only this end calls it — the callee allocates its channel and
// discipline state from the SETUP's parameters. Call from a running thread
// of this process.
func (p *Proc) OpenCall(t *Thread, peer ProcID, cfg CallConfig) (*Channel, error) {
	if t.proc != p {
		panic("core: thread opening a call on another process")
	}
	if peer == p.cfg.ID {
		panic("core: cannot open a signaled channel to self")
	}
	if cfg.SetupTimeout <= 0 {
		cfg.SetupTimeout = DefaultSetupTimeout
	}
	if cfg.Retries <= 0 {
		cfg.Retries = DefaultSetupRetries
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = cfg.SetupTimeout / 2
	}
	if _, ok := encodeCallWords(cfg); !ok {
		return nil, &OpenError{Peer: peer, ID: cfg.ID, Cause: CauseUnsupported}
	}
	id := cfg.ID
	if id > MaxChannelID {
		panic(fmt.Sprintf("core: channel ID must be 1..%d (0 picks a free ID)", MaxChannelID))
	}
	if id == 0 {
		id = p.freeChannelID(peer)
	}
	if id == 0 || p.openChannel(peer, id) != nil {
		return nil, &OpenError{Peer: peer, ID: id, Cause: CauseBusy}
	}
	// Dialing (or re-dialing) a peer starts the failure detector's view of
	// it over: the death record clears and monitoring restarts with a fresh
	// grace period, so an OpenCall retried after a heal or a restart can
	// reach the peer.
	delete(p.deadPeers, peer)
	delete(p.hbPeers, peer)
	c := p.addChannel(peer, id, chanOpening, cfg.Priority, cfg.Lane, cfg.Flow, cfg.Error)
	p.sigRefSeq++
	c.sigRef = p.sigRefSeq
	c.call = &sigCall{cfg: cfg, caller: t}
	p.sendSetup(c)
	// The signaling handlers and timers all run in the scheduler domain, so
	// the state cannot change between this check and the park — no lost
	// wakeup is possible.
	for c.state.Load() == chanOpening {
		t.mt.Park("ncs call")
	}
	if c.cause != CauseNone {
		return nil, &OpenError{Peer: peer, ID: id, Cause: c.cause, Attempts: c.attempt}
	}
	return c, nil
}

// freeChannelID scans for the lowest unused explicit channel ID toward
// peer (0 when the whole space is occupied).
func (p *Proc) freeChannelID(peer ProcID) ChannelID {
	for id := ChannelID(1); id <= MaxChannelID; id++ {
		if p.openChannel(peer, id) == nil {
			return id
		}
	}
	return 0
}

// sendSetup transmits the call's next SETUP attempt and arms its timeout:
// the per-attempt SetupTimeout plus linear backoff and a deterministic
// per-(proc, call, attempt) jitter, so a mesh of synchronized callers does
// not retry in lockstep.
func (p *Proc) sendSetup(c *Channel) {
	cfg := &c.call.cfg
	c.attempt++
	at := c.attempt
	if at > 1 {
		p.statSetupRetries.Add(1)
	}
	p.statSetupsSent.Add(1)
	words, _ := encodeCallWords(*cfg)
	sig := atm.SigMessage{
		Type:    atm.SigSetup,
		CallRef: c.sigRef,
		Caller:  int32(p.cfg.ID),
		Called:  int32(c.peer),
		Forward: atm.VC{VPI: uint8(c.id)},
	}
	// The 9th word after the QoS block is the calling-party thread index,
	// surfaced on the callee as Channel.PeerThread so a serving thread can
	// address the opener before any application rendezvous; the 10th is
	// reserved and sent as 0.
	p.sendProcCtrl(c.peer, tagSigSetup, sig.Marshal(),
		append(words[:], uint32(c.call.caller.idx), 0)...)
	p.armRetry(c, cfg.SetupTimeout+time.Duration(at-1)*cfg.Backoff+
		sigJitter(uint32(p.cfg.ID), c.sigRef, uint32(at), cfg.Backoff))
}

// sigJitter derives a deterministic jitter in [0, span) from three words
// (FNV-1a), so retry/release timers spread without touching a global RNG —
// the virtual-time determinism contract.
func sigJitter(a, b, c uint32, span time.Duration) time.Duration {
	if span <= 0 {
		return 0
	}
	h := uint32(2166136261)
	for _, v := range [3]uint32{a, b, c} {
		for i := 0; i < 4; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 16777619
		}
	}
	return time.Duration(h%1024) * span / 1024
}

// ---------------------------------------------------------------------------
// QoS parameter encoding
//
// A SETUP carries the call's QoS as 8 uint32 words after the marshalled
// SigMessage: [priority, reserved, flowKind, flowA, flowB, errKind, errA,
// errB]. Word 1 once carried a scheduler weight: it is sent as 0, and a
// non-zero one is refused. flowKind 0 = none, 1 = window (A = Window, B =
// SyncInterval µs), 2 = rate (A = bytes/s, B = bucket bytes); errKind 0 =
// none, 1 = go-back-N (A = Window, B = Timeout µs); any other kind is
// refused. A 9th word follows with the calling-party thread index
// (Channel.PeerThread), and a 10th, reserved: sent as 0, ignored on
// receipt.

// maxCallErrWindow caps the go-back-N window a SETUP may ask of the callee.
// The callee's receiver holds up to Window-1 frames that arrive past a
// hole, so the caller's window word is a claim on the callee's memory; every
// caller in this module asks for 8 or less.
const maxCallErrWindow = 256

func encodeCallWords(cfg CallConfig) ([8]uint32, bool) {
	var w [8]uint32
	w[0] = uint32(cfg.Priority)
	switch fc := cfg.Flow.(type) {
	case nil:
	case NoFlowControl:
	case *WindowFlow:
		w[2] = 1
		w[3] = satU32(float64(fc.Window))
		w[4] = satU32(float64(fc.SyncInterval / time.Microsecond))
	case *RateFlow:
		w[2] = 2
		w[3] = satU32(fc.Rate)
		w[4] = satU32(fc.Bucket)
	default:
		return w, false
	}
	switch ec := cfg.Error.(type) {
	case nil:
	case NoErrorControl:
	case *GoBackN:
		w[5] = 1
		w[6] = satU32(float64(ec.Window))
		w[7] = satU32(float64(ec.Timeout / time.Microsecond))
	default:
		return w, false
	}
	return w, true
}

// decodeCallWords is the callee's reading of a SETUP's QoS words, which
// arrive from the carrier and are treated as hostile: anything out of
// range refuses the call instead of reaching a constructor. A window word
// must fit an int on every GOARCH — 2^31 is negative on a 32-bit callee —
// an error-control window must not pass maxCallErrWindow, and the reserved
// word must be 0.
func decodeCallWords(w []uint32) (prio int, fc FlowControl, ec ErrorControl, ok bool) {
	if len(w) < 8 || w[0] >= NumChannelPriorities || w[1] != 0 {
		return 0, nil, nil, false
	}
	prio = int(w[0])
	count := func(v uint32) bool { return v >= 1 && v <= math.MaxInt32 }
	switch w[2] {
	case 0:
		fc = NoFlowControl{}
	case 1:
		if !count(w[3]) {
			return 0, nil, nil, false
		}
		f := NewWindowFlow(int(w[3]))
		f.SyncInterval = time.Duration(w[4]) * time.Microsecond
		fc = f
	case 2:
		if w[3] == 0 || w[4] == 0 {
			return 0, nil, nil, false
		}
		fc = NewRateFlow(float64(w[3]), float64(w[4]))
	default:
		return 0, nil, nil, false
	}
	switch w[5] {
	case 0:
		ec = NoErrorControl{}
	case 1:
		if w[6] < 1 || w[6] > maxCallErrWindow || w[7] < 1 {
			return 0, nil, nil, false
		}
		ec = NewGoBackN(int(w[6]), time.Duration(w[7])*time.Microsecond)
	default:
		return 0, nil, nil, false
	}
	return prio, fc, ec, true
}

// satU32 converts a parameter to its SETUP word, saturating at both ends.
func satU32(v float64) uint32 {
	if v < 0 {
		return 0
	}
	if v > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(v)
}

// ---------------------------------------------------------------------------
// Wire plumbing

// sendRelease sends RELEASE for the channel's call, carrying this end's
// cause.
func (p *Proc) sendRelease(c *Channel) {
	p.sendProcCtrl(c.peer, tagSigRelease, atm.SigMessage{
		Type: atm.SigRelease, CallRef: c.sigRef,
		Caller: int32(p.cfg.ID), Called: int32(c.peer),
		Forward: atm.VC{VPI: uint8(c.id)},
	}.Marshal(), uint32(c.cause))
}

// sendRelComp answers the peer's RELEASE of call ref on channel id.
func (p *Proc) sendRelComp(peer ProcID, id ChannelID, ref uint32) {
	p.sendProcCtrl(peer, tagSigRelComp, atm.SigMessage{
		Type: atm.SigReleaseComplete, CallRef: ref,
		Caller: int32(peer), Called: int32(p.cfg.ID),
		Forward: atm.VC{VPI: uint8(id)},
	}.Marshal())
}

// parseSig decodes a signaling frame's payload: the marshalled SigMessage,
// then up to 10 trailing uint32 words, nw of them present (the rest read
// as zero). It never panics on hostile input.
func parseSig(b []byte) (sig atm.SigMessage, words [10]uint32, nw int, err error) {
	if len(b) < atm.SigWireSize {
		return sig, words, 0, fmt.Errorf("short signaling frame (%d bytes)", len(b))
	}
	if sig, err = atm.UnmarshalSig(b[:atm.SigWireSize]); err != nil {
		return sig, words, 0, err
	}
	rest := b[atm.SigWireSize:]
	nw = min(len(rest)/4, len(words))
	for i := 0; i < nw; i++ {
		words[i] = wire.Uint32(rest[4*i:])
	}
	return sig, words, nw, nil
}

// onSigMsg dispatches one arriving signaling frame. Scheduler domain; the
// caller releases m afterwards, so nothing here may retain it.
func (p *Proc) onSigMsg(m *transport.Message) {
	if m.Tag == tagSigBeat {
		// Heartbeats are bare one-word frames — no marshalled SigMessage.
		if len(m.Data) >= 4 {
			p.onBeat(m.From, wire.Uint32(m.Data))
		}
		return
	}
	sig, words, nw, err := parseSig(m.Data)
	if err != nil {
		// A frame the peer sent is its fault, not this proc's: counted and
		// dropped, like a late control frame.
		p.statBadSignaling.Add(1)
		return
	}
	// Signaling frames ride channel 0, because the channel under
	// negotiation has no VC route yet (SETUP) or no longer has one (late
	// RELEASE retries); that channel rides in the forward VC's VPI.
	id := ChannelID(sig.Forward.VPI)
	if m.Tag == tagSigSetup {
		p.onSetup(m.From, id, sig, words, nw)
		return
	}
	// Everything else is about a call in progress. A channel under another
	// call reference (or a static one) is another incarnation: none.
	c := p.openChannel(m.From, id)
	if c != nil && c.sigRef != sig.CallRef {
		c = nil
	}
	ev, cause := evRelComp, CauseNone
	switch m.Tag {
	case tagSigConnect:
		ev = evConnect
	case tagSigReject:
		ev, cause = evReject, CallCause(words[0])
		if cause == CauseNone {
			cause = CauseAdmissionDenied
		}
	case tagSigRelease:
		ev = evRelease
	}
	switch {
	case c != nil:
		p.sigStep(c, ev, cause)
	case ev == evRelease:
		// Already finalized here (or never existed — a timed-out caller
		// releasing a half-open call): completing again is idempotent.
		p.sendRelComp(m.From, id, sig.CallRef)
	}
}

// ---------------------------------------------------------------------------
// Callee side

// onSetup judges one incoming call: channel ID, proc state, duplicate
// call, admission policy, QoS decode (the first nw of words are present; a
// SETUP short of the 8 QoS words fails it) — then allocates the channel,
// born OPEN, binds its VC and answers CONNECT before OnAccept runs. Any
// refusal answers REJECT with a cause instead of leaving the caller hanging.
func (p *Proc) onSetup(from ProcID, id ChannelID, sig atm.SigMessage, words [10]uint32, nw int) {
	// A peer dialing us is alive by definition: clear any stale death
	// record so its new call is monitored with a fresh grace period.
	delete(p.deadPeers, from)
	delete(p.hbPeers, from)
	if id == 0 || id > MaxChannelID {
		p.rejectSetup(from, sig, CauseUnsupported)
		return
	}
	if p.closing.Load() {
		p.rejectSetup(from, sig, CausePeerClosed)
		return
	}
	if exist := p.openChannel(from, id); exist != nil {
		if exist.sigRef == sig.CallRef && exist.call == nil && exist.state.Load() == chanOpen {
			// Duplicate SETUP for a call we already accepted (our CONNECT
			// was lost, or the retry raced it): answer again, idempotently.
			p.sendConnect(from, id, sig)
			return
		}
		p.rejectSetup(from, sig, CauseBusy)
		return
	}
	if pol := p.cfg.Admission; pol != nil {
		if ok, cause := pol.Admit(from, id, time.Duration(p.cfg.RT.Now())); !ok {
			if cause == CauseNone {
				cause = CauseAdmissionDenied
			}
			p.rejectSetup(from, sig, cause)
			return
		}
	}
	prio, fc, ec, ok := decodeCallWords(words[:nw])
	if !ok {
		p.rejectSetup(from, sig, CauseUnsupported)
		return
	}
	c := p.addChannel(from, id, chanOpen, prio, 0, fc, ec)
	c.sigRef = sig.CallRef
	c.peerThread = int(words[8])
	p.statSetupsAccepted.Add(1)
	p.markOpen(c)
	p.sendConnect(from, id, sig)
	if p.cfg.OnAccept != nil {
		p.cfg.OnAccept(c)
	}
}

// rejectSetup answers a SETUP with REJECT and the given cause.
func (p *Proc) rejectSetup(from ProcID, sig atm.SigMessage, cause CallCause) {
	p.statSetupsRejected.Add(1)
	rs := atm.SigMessage{Type: atm.SigReject, CallRef: sig.CallRef, Caller: sig.Caller, Called: sig.Called, Forward: sig.Forward}
	p.sendProcCtrl(from, tagSigReject, rs.Marshal(), uint32(cause))
}

func (p *Proc) sendConnect(to ProcID, id ChannelID, sig atm.SigMessage) {
	cs := atm.SigMessage{
		Type: atm.SigConnect, CallRef: sig.CallRef, Caller: sig.Caller, Called: sig.Called,
		Forward: atm.VC{VPI: uint8(id)}, Backward: atm.VC{VPI: uint8(id)},
	}
	p.sendProcCtrl(to, tagSigConnect, cs.Marshal())
}

// markOpen books a channel that just reached OPEN on either end: the
// balance counters, the per-call VC route in a carrier that routes per call
// (transport.ChannelRouter; the counter ticks regardless, so leak
// accounting is uniform across carriers), and a fresh retry counter for its
// RELEASE. finalizeChannel undoes it.
func (p *Proc) markOpen(c *Channel) {
	c.attempt = 0
	p.statOpened.Add(1)
	p.statVCBound.Add(1)
	if cr, ok := p.cfg.Endpoint.(transport.ChannelRouter); ok {
		cr.BindChannel(c.peer, c.id)
	}
}

// ---------------------------------------------------------------------------
// Close handshake

// CloseCall closes a signaled channel with a full handshake: new sends on
// this end fail immediately, in-flight data and pending control drain,
// then a RELEASE tells the peer — which drains its own sender side and
// answers RELEASE-COMPLETE — and both ends release their VC, discipline,
// flush-wheel, and lane-scheduler state. The calling thread parks until
// this end has finalized; a close already under way (Close, the peer's
// RELEASE, peer death) is waited out, and several CloseCalls all wake.
// Statically opened channels (Proc.Open) are not signaled — use Close.
func (c *Channel) CloseCall(t *Thread) error {
	if t.proc != c.p {
		panic("core: thread closing another process's channel")
	}
	if c.sigRef == 0 {
		return fmt.Errorf("core: channel %d to proc %d is not signaled; use Close", c.id, c.peer)
	}
	c.p.sigStep(c, evClose, CauseNone)
	for !c.Closed() {
		c.closeWaiters = append(c.closeWaiters, t.mt)
		t.mt.Park("ncs close")
	}
	return nil
}

// pollDrain steps evDrained once the channel's sender side has fully
// drained — nothing queued on the channel, no retransmission included, and
// nothing in flight awaiting acknowledgement — looking again
// every sigDrainPoll on the scheduler clock until then. Termination is
// guaranteed: the disciplines' MaxRetries abandonment empties the in-flight
// window even against a dead peer. The chain dies with the state it polls
// for (sigAfter), so a virtual-time engine can quiesce.
func (p *Proc) pollDrain(c *Channel) {
	ln := c.lockLane()
	drained := c.sq.Size()+c.rq.Size() == 0 && c.errc.pending() == 0
	ln.mu.Unlock()
	if drained {
		p.sigStep(c, evDrained, CauseNone)
		return
	}
	p.sigAfter(c, sigDrainPoll, func() { p.pollDrain(c) })
}

// finalizeChannel is the terminal teardown (sigStep has stored chanClosed;
// from is the state left): the channel leaves the proc's table, its lane
// state detaches, queued sends fail with closedErr and queued retransmissions
// retire silently; one that was open undoes markOpen; threads in CloseCall
// wake, and so does every receiver the close dooms.
func (p *Proc) finalizeChannel(c *Channel, from uint32) {
	ln := c.lockLane()
	c.flushCtrl()
	c.flow.shutdown()
	ln.detachChanLocked(c)
	ln.leave()
	p.channels.Delete(keyOf(c.peer, c.id))
	if from >= chanOpen {
		p.statClosed.Add(1)
		p.statVCRel.Add(1)
		if cr, ok := p.cfg.Endpoint.(transport.ChannelRouter); ok {
			cr.UnbindChannel(c.peer, c.id)
		}
	}
	for _, mt := range c.closeWaiters {
		p.wakeIfIdle(mt, "ncs close")
	}
	c.closeWaiters = nil
	p.closedSweep(c)
}

// closedSweep follows every close on this end: a receiver parked on the
// channel alone can never complete now (peerDead, which set deadErr, sweeps
// once after all its finalizations: sweeping per channel would reorder the
// wakeups), and error control may have been holding the only reference
// that kept the system threads alive.
func (p *Proc) closedSweep(c *Channel) {
	p.chanCloses++
	if c.deadErr == nil {
		p.failDoomedWaiters()
	}
	p.checkShutdownWake()
}

// ---------------------------------------------------------------------------
// Balance counters

// LifecycleStats is the proc's signaled-lifecycle ledger: paired counters
// that must balance at quiesce (opened/closed, bound/released,
// armed/fired, pushed/drained) plus the setup funnel a churn scenario
// measures (sent/accepted/rejected/retries).
type LifecycleStats struct {
	// Opened counts channels that reached OPEN on this end (both roles);
	// Closed counts those that reached CLOSED after being open.
	Opened, Closed int64
	// The setup funnel, caller side (SetupsSent includes retries) and
	// callee side (accepted/rejected).
	SetupsSent, SetupsAccepted, SetupsRejected, SetupRetries int64
	// VCsBound / VCsReleased count per-call VC route installs/removals.
	VCsBound, VCsReleased int64
	// TimersArmed / TimersFired count every timer the proc schedules on its
	// runtime and every firing (virtual runtimes only; zero in real mode).
	TimersArmed, TimersFired int64
	// RingPushed / RingDrained count lane MPSC ring entries (zero under the
	// thread driver, which has no ring).
	RingPushed, RingDrained int64
	// LateCtrl counts control frames that arrived for a channel already
	// finalized (dropped; cumulative control is supersede-safe).
	LateCtrl int64
	// BadSignaling counts signaling frames too malformed to parse
	// (dropped).
	BadSignaling int64
	// BadControl counts control frames with a tag this proc does not know,
	// StrayData data frames on a channel not open here (never opened, or
	// closed); both are dropped peer input, never an error.
	BadControl, StrayData int64
}

// Lifecycle snapshots the proc's lifecycle counters. The ring ledger is
// summed over the lanes: what each ring took in, plus the items a deliverer
// consumed itself (inline passes, one item each, which never entered the
// ring), against every item a pass ingested.
func (p *Proc) Lifecycle() LifecycleStats {
	var pushed, drained int64
	for _, ln := range p.lanes {
		ln.mu.Lock()
		pushed += ln.inlinePasses
		drained += ln.ringDrained
		ln.mu.Unlock()
		if ln.rx != nil {
			pushed += ln.rx.Pushed()
		}
	}
	return LifecycleStats{
		Opened:         p.statOpened.Load(),
		Closed:         p.statClosed.Load(),
		SetupsSent:     p.statSetupsSent.Load(),
		SetupsAccepted: p.statSetupsAccepted.Load(),
		SetupsRejected: p.statSetupsRejected.Load(),
		SetupRetries:   p.statSetupRetries.Load(),
		VCsBound:       p.statVCBound.Load(),
		VCsReleased:    p.statVCRel.Load(),
		TimersArmed:    p.statTimersArmed.Load(),
		TimersFired:    p.statTimersFired.Load(),
		RingPushed:     pushed,
		RingDrained:    drained,
		LateCtrl:       p.statLateCtrl.Load(),
		BadSignaling:   p.statBadSignaling.Load(),
		BadControl:     p.statBadControl.Load(),
		StrayData:      p.statStrayData.Load(),
	}
}

// Leaks reports every unbalanced lifecycle counter at quiesce (empty =
// nothing leaked). The timer and ring balances are asserted only on a
// virtual runtime, where quiesce is exact: a real-mode proc may legitimately
// hold armed wall-clock timers and in-transit ring entries at any sampling
// instant.
func (p *Proc) Leaks() []string {
	var leaks []string
	st := p.Lifecycle()
	if st.Opened != st.Closed {
		leaks = append(leaks, fmt.Sprintf("channels opened %d != closed %d", st.Opened, st.Closed))
	}
	if st.VCsBound != st.VCsReleased {
		leaks = append(leaks, fmt.Sprintf("VCs bound %d != released %d", st.VCsBound, st.VCsReleased))
	}
	if p.cfg.RT.Virtual() {
		if st.TimersArmed != st.TimersFired {
			leaks = append(leaks, fmt.Sprintf("timers armed %d != fired %d", st.TimersArmed, st.TimersFired))
		}
		if st.RingPushed != st.RingDrained {
			leaks = append(leaks, fmt.Sprintf("ring entries pushed %d != drained %d", st.RingPushed, st.RingDrained))
		}
	}
	for _, c := range p.channelsOrdered() {
		if c.sigRef != 0 && !c.Closed() {
			leaks = append(leaks, fmt.Sprintf("signaled channel %d to proc %d still open", c.id, c.peer))
		}
	}
	return leaks
}
