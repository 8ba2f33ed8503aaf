package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mts"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcpip"
	"repro/internal/transport"
	"repro/internal/udpatm"
)

// One protocol body, three drivers: every scenario below runs the same
// workload over each way New can execute the lane code and asserts the same
// things — exactly-once in-order delivery per channel, no leaked lifecycle
// state, no give-up nobody expected. A behaviour that only one driver has
// is a bug in the seam (lane.service, flushRunLocked, retireLocked), and this
// is where it shows.

// matrixOpt is what a scenario configures on every proc of its cluster.
type matrixOpt struct {
	flow      FlowControl  // Config.Flow template (forked per default channel)
	errc      ErrorControl // Config.Error template
	onAccept  func(*Channel)
	heartbeat Heartbeat
	// loss is the carrier's independent drop probability; dropFirst drops
	// exactly the first data frame instead. Mem can do both and udpatm only
	// the first; the simulated fabrics run the same disciplines lossless.
	loss      float64
	dropFirst bool
}

// matrixCluster is n procs on one carrier, however they are executed.
type matrixCluster struct {
	procs  []*Proc
	run    func()      // runs every thread of every proc to completion
	kill   func(h int) // crashes host h at the carrier; callable from a thread
	gaveUp [][]error   // per proc, what its give-up observer saw
	lossy  bool        // the carrier drops what the options ask it to
}

// matrixEnv is one driver on one carrier.
type matrixEnv struct {
	name   string
	driver string // what New must pick: "thread", "goroutine", "virtual"
	build  func(t *testing.T, n int, opt matrixOpt) *matrixCluster
}

func driverName(p *Proc) string {
	switch p.laneDriver.(type) {
	case *threadDriver:
		return "thread"
	case goroutineDriver:
		return "goroutine"
	case *virtualDriver:
		return "virtual"
	}
	return fmt.Sprintf("%T", p.laneDriver)
}

// collect installs the recording give-up observers.
func (cl *matrixCluster) collect() *matrixCluster {
	cl.gaveUp = make([][]error, len(cl.procs))
	for i, p := range cl.procs {
		i := i
		p.OnException(func(err error) { cl.gaveUp[i] = append(cl.gaveUp[i], err) })
	}
	return cl
}

func memEnv(lanes int) func(t *testing.T, n int, opt matrixOpt) *matrixCluster {
	return func(t *testing.T, n int, opt matrixOpt) *matrixCluster {
		mem := transport.NewMem()
		if opt.loss > 0 {
			mem.SetDropRate(opt.loss, 7)
		}
		if opt.dropFirst {
			var dropped atomic.Bool
			mem.SetDropRate(1, 7)
			mem.SetDropClass(func(m *transport.Message) bool {
				return m.Tag >= 0 && dropped.CompareAndSwap(false, true)
			})
		}
		cl := &matrixCluster{kill: func(h int) { mem.KillHost(ProcID(h)) }, lossy: true}
		for i := 0; i < n; i++ {
			rt := mts.New(mts.Config{Name: fmt.Sprintf("node%d", i), IdleTimeout: 10 * time.Second})
			cl.procs = append(cl.procs, New(Config{
				ID: ProcID(i), RT: rt, Endpoint: mem.Attach(ProcID(i), rt),
				Flow: opt.flow, Error: opt.errc, OnAccept: opt.onAccept, Heartbeat: opt.heartbeat,
				SendLanes: lanes, RecvLanes: lanes,
			}))
		}
		cl.run = func() { runReal(cl.procs) }
		return cl.collect()
	}
}

// simtcpEnv is simCluster with the scenario's options: the cost-model TCP
// path on a discrete-event engine, the carrier that parks the thread it is
// handed.
func simtcpEnv(t *testing.T, n int, opt matrixOpt) *matrixCluster {
	eng := sim.NewEngine()
	eng.SetMaxTime(time.Hour)
	net := netsim.NewATMLAN(eng, n, netsim.ATMLANConfig{HostLinkBps: 100e6})
	cost := tcpip.CostModel{PerMessage: 100 * time.Microsecond, PerByteSend: 10 * time.Nanosecond, PerByteRecv: 10 * time.Nanosecond, MTU: 8192, FrameOverhead: 58}
	cl := &matrixCluster{run: eng.Run, kill: net.KillHost}
	for i := 0; i < n; i++ {
		node := eng.NewNode(fmt.Sprintf("node%d", i))
		cl.procs = append(cl.procs, New(Config{
			ID: ProcID(i), RT: node.RT(), Endpoint: tcpip.NewSimTCP(node, net, i, cost),
			RecvCharge: func(mt *mts.Thread, sz int) { node.Compute(mt, cost.RecvCost(sz)) },
			Flow:       opt.flow, Error: opt.errc, OnAccept: opt.onAccept, Heartbeat: opt.heartbeat,
			SendLanes: 4, RecvLanes: 4, // the carrier decides, not the count
		}))
	}
	return cl.collect()
}

func vmeshEnv(t *testing.T, n int, opt matrixOpt) *matrixCluster {
	vm := NewVirtualMesh(n, 1, VirtualMeshConfig{
		Flow: opt.flow, Error: opt.errc, OnAccept: opt.onAccept, Heartbeat: opt.heartbeat,
	})
	cl := &matrixCluster{procs: vm.Procs, run: vm.Run, kill: vm.Net.KillHost}
	return cl.collect()
}

// udpatmEnv is the real-socket cell carrier: AAL5 over UDP loopback, whose
// frames come in on the endpoint's reader goroutine — decoded into its Inbox
// at one lane, handed to the lane engine as raw frames above.
func udpatmEnv(lanes int) func(t *testing.T, n int, opt matrixOpt) *matrixCluster {
	return func(t *testing.T, n int, opt matrixOpt) *matrixCluster {
		if opt.dropFirst {
			t.Skip("udpatm loses frames at random (SetRecvDropRate), not by class: it cannot lose exactly the first data frame")
		}
		netw := udpatm.NewNetwork()
		eps := make([]*udpatm.Endpoint, n)
		cl := &matrixCluster{}
		for i := 0; i < n; i++ {
			rt := mts.New(mts.Config{Name: fmt.Sprintf("node%d", i), IdleTimeout: 10 * time.Second})
			ep, err := netw.Attach(ProcID(i), rt)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ep.Close() })
			if opt.loss > 0 {
				ep.SetRecvDropRate(opt.loss, int64(7+i))
			}
			eps[i] = ep
			cl.procs = append(cl.procs, New(Config{
				ID: ProcID(i), RT: rt, Endpoint: ep,
				Flow: opt.flow, Error: opt.errc, OnAccept: opt.onAccept, Heartbeat: opt.heartbeat,
				SendLanes: lanes, RecvLanes: lanes,
			}))
		}
		// A blackhole drops what arrives at an endpoint, whoever sent it, so
		// cutting a host off from its one peer takes both receive sides.
		// Only the two-proc scenarios kill a host.
		if n == 2 {
			cl.kill = func(int) {
				for _, ep := range eps {
					ep.SetBlackhole(true)
				}
			}
		}
		cl.run = func() { runReal(cl.procs) }
		return cl.collect()
	}
}

var matrixEnvs = []matrixEnv{
	{"thread/mem", "thread", memEnv(1)},
	{"thread/simtcp", "thread", simtcpEnv},
	{"thread/udpatm", "thread", udpatmEnv(1)},
	{"goroutine/mem", "goroutine", memEnv(2)},
	{"goroutine/udpatm", "goroutine", udpatmEnv(2)},
	{"virtual/mesh", "virtual", vmeshEnv},
}

// finish runs the cluster and applies the common assertions. expected
// filters the give-ups a scenario provokes on purpose.
func (cl *matrixCluster) finish(t *testing.T, expected func(proc int, err error) bool) {
	t.Helper()
	cl.run()
	for i, p := range cl.procs {
		for _, err := range cl.gaveUp[i] {
			if expected == nil || !expected(i, err) {
				t.Errorf("proc %d: unexpected give-up report: %v", i, err)
			}
		}
		if leaks := p.Leaks(); len(leaks) != 0 {
			t.Errorf("proc %d leaks: %v", i, leaks)
		}
	}
}

func TestEngineMatrix(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(t *testing.T, env matrixEnv)
	}{
		{"driver", matrixDriver},
		{"pingpong", matrixPingPong},
		{"window+gbn/loss", func(t *testing.T, env matrixEnv) {
			matrixLossyStream(t, env, NewWindowFlow(8), NewGoBackN(8, 20*time.Millisecond))
		}},
		{"gbn/loss", func(t *testing.T, env matrixEnv) {
			matrixLossyStream(t, env, nil, NewGoBackN(8, 20*time.Millisecond))
		}},
		{"gbn/first-lost", matrixFirstLost},
		{"priority", matrixPriority},
		{"advertise", matrixAdvertise},
		{"callchurn", matrixCallChurn},
		{"peerdeath", matrixPeerDeath},
		{"group", matrixGroup},
	}
	for _, env := range matrixEnvs {
		for _, sc := range scenarios {
			env, sc := env, sc
			t.Run(env.name+"/"+sc.name, func(t *testing.T) { sc.run(t, env) })
		}
	}
}

// matrixDriver: New picked the driver the carrier and Config call for, and
// the proc looks the part from outside — a thread-driver proc has one lane
// and one LaneStats entry whatever lane count was asked for, and owns the
// paper's two system threads; the others own one keeper thread.
func matrixDriver(t *testing.T, env matrixEnv) {
	cl := env.build(t, 2, matrixOpt{})
	for _, p := range cl.procs {
		p.TCreate("noop", mts.PrioDefault, func(*Thread) {})
		if got := driverName(p); got != env.driver {
			t.Fatalf("driver = %s, want %s", got, env.driver)
		}
		var sys []string
		for _, th := range p.RT().Threads() {
			if th.Priority() == mts.PrioSystem {
				sys = append(sys, th.Name())
			}
		}
		id := p.ID()
		want := []string{fmt.Sprintf("ncs%d-lanes", id)}
		lanes := 2
		if env.driver == "thread" {
			want = []string{fmt.Sprintf("ncs%d-send", id), fmt.Sprintf("ncs%d-recv", id)}
			lanes = 1
		}
		if fmt.Sprint(sys) != fmt.Sprint(want) {
			t.Errorf("system threads = %v, want %v", sys, want)
		}
		if p.Lanes() != lanes || len(p.LaneStats()) != lanes {
			t.Errorf("Lanes() = %d with %d LaneStats entries, want %d", p.Lanes(), len(p.LaneStats()), lanes)
		}
	}
	cl.finish(t, nil)
}

// matrixPingPong: round trips started from either end.
func matrixPingPong(t *testing.T, env matrixEnv) {
	const rounds = 40
	cl := env.build(t, 2, matrixOpt{})
	side := func(me, peer ProcID) func(*Thread) {
		return func(th *Thread) {
			for k := 0; k < 2*rounds; k++ {
				// Proc 0 serves first in the first half, proc 1 in the second.
				if (k < rounds) == (me == 0) {
					th.Send(0, peer, []byte{byte(k)})
				}
				data, from := th.Recv(Any, peer)
				if len(data) != 1 || data[0] != byte(k) || from.Proc != peer {
					t.Errorf("proc %d round %d: got %v from %+v", me, k, data, from)
					return
				}
				if (k < rounds) != (me == 0) {
					th.Send(0, peer, []byte{byte(k)})
				}
			}
		}
	}
	cl.procs[0].TCreate("a", mts.PrioDefault, side(0, 1))
	cl.procs[1].TCreate("b", mts.PrioDefault, side(1, 0))
	cl.finish(t, nil)
	for i, p := range cl.procs {
		if p.Sent() != 2*rounds || p.Received() != 2*rounds {
			t.Errorf("proc %d: sent %d received %d, want %d each", i, p.Sent(), p.Received(), 2*rounds)
		}
	}
}

// matrixLossyStream: a one-way stream through the flow and error tiers with
// one frame in ten lost (where the carrier can lose one) arrives exactly
// once, in order.
func matrixLossyStream(t *testing.T, env matrixEnv, fc FlowControl, ec ErrorControl) {
	const msgs = 120
	cl := env.build(t, 2, matrixOpt{flow: fc, errc: ec, loss: 0.1})
	cl.procs[0].TCreate("tx", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < msgs; k++ {
			th.Send(0, 1, []byte{byte(k), byte(k >> 8)})
		}
	})
	got := 0
	cl.procs[1].TCreate("rx", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < msgs; k++ {
			data, _ := th.Recv(Any, 0)
			if seq := int(data[0]) | int(data[1])<<8; seq != k {
				t.Errorf("position %d carries message %d", k, seq)
				return
			}
			got++
		}
	})
	// The receiver may exit with the sender's last acks lost for good: the
	// sender's error control then gives up, which it reports.
	cl.finish(t, func(proc int, err error) bool { return proc == 0 })
	if got != msgs {
		t.Fatalf("received %d of %d", got, msgs)
	}
}

// matrixFirstLost: a go-back-N channel fills its window and loses the first
// frame of it. The next send is gated on that full window, and the
// retransmission that would open it must leave anyway — it bypasses the gate
// — so the stream still completes in order. The receiver held the rest of
// the window, so the one lost frame costs exactly one retransmission (none
// where the carrier cannot lose it).
func matrixFirstLost(t *testing.T, env matrixEnv) {
	const window, msgs = 4, 16
	cl := env.build(t, 2, matrixOpt{errc: NewGoBackN(window, 10*time.Millisecond), dropFirst: true})
	cl.procs[0].TCreate("tx", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < msgs; k++ {
			th.Send(0, 1, []byte{byte(k)})
		}
	})
	got := 0
	cl.procs[1].TCreate("rx", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < msgs; k++ {
			if data, _ := th.Recv(Any, 0); data[0] != byte(k) {
				t.Errorf("position %d carries message %d", k, data[0])
				return
			}
			got++
		}
	})
	cl.finish(t, nil)
	if got != msgs {
		t.Fatalf("received %d of %d", got, msgs)
	}
	want := int64(0)
	if cl.lossy {
		want = 1
	}
	if re := cl.procs[0].DefaultChannel(1).Error().(*GoBackN).Retransmissions(); re != want {
		t.Fatalf("%d retransmissions, want %d", re, want)
	}
}

// TestGateRetransmitPassesFullWindow is matrixFirstLost at the default lane
// count, so -cpu picks the driver: the thread driver at one, goroutine
// engines above.
func TestGateRetransmitPassesFullWindow(t *testing.T) {
	matrixFirstLost(t, matrixEnv{name: "mem", build: memEnv(0)})
}

// matrixPriority: with a bulk (priority 0) and an urgent (priority 7)
// message staged on one lane, bulk first, one service puts the urgent one on
// the wire first, whoever runs the pass.
func matrixPriority(t *testing.T, env matrixEnv) {
	cl := env.build(t, 2, matrixOpt{})
	low0 := cl.procs[0].Open(1, ChannelConfig{ID: 1, Priority: 0, Lane: 1})
	high0 := cl.procs[0].Open(1, ChannelConfig{ID: 2, Priority: 7, Lane: 1})
	low1 := cl.procs[1].Open(0, ChannelConfig{ID: 1, Priority: 0, Lane: 1})
	high1 := cl.procs[1].Open(0, ChannelConfig{ID: 2, Priority: 7, Lane: 1})
	var order []string
	cl.procs[0].TCreate("stager", mts.PrioDefault, func(th *Thread) {
		// Both receivers announce themselves and park before anything is
		// staged, so arrival order is wire order.
		th.Recv(Any, Any)
		th.Recv(Any, Any)
		ln := low0.lockLane()
		for toThread, c := range []*Channel{low0, high0} {
			m := ln.getDataMsg()
			m.From, m.To, m.Channel = 0, 1, c.id
			m.FromThread, m.ToThread = th.Idx(), toThread
			req := ln.getReq()
			req.m, req.ch = m, c
			ln.pending.push(req)
		}
		ln.leave()
	})
	cl.procs[1].TCreate("rlow", mts.PrioDefault, func(th *Thread) {
		th.Send(0, 0, nil)
		low1.Recv(th, Any)
		order = append(order, "low")
	})
	cl.procs[1].TCreate("rhigh", mts.PrioDefault, func(th *Thread) {
		th.Send(0, 0, nil)
		high1.Recv(th, Any)
		order = append(order, "high")
	})
	cl.finish(t, nil)
	if len(order) != 2 || order[0] != "high" {
		t.Fatalf("arrival order = %v, want high first", order)
	}
}

// matrixAdvertise: a window-threshold advertisement is queued as a standalone
// frame the moment the flow tier produces it — before any service pass, and
// whoever will run that pass — so when a credit leaves does not depend on the
// driver.
func matrixAdvertise(t *testing.T, env matrixEnv) {
	cl := env.build(t, 2, matrixOpt{flow: NewWindowFlow(8)})
	cl.procs[0].TCreate("adv", mts.PrioDefault, func(th *Thread) {
		c := cl.procs[0].DefaultChannel(1)
		ln := c.lockLane()
		c.Flow().(*WindowFlow).advertise()
		if ln.pending.empty() {
			t.Error("advertisement with nothing queued behind it is not in the send queue: it waits for a pass or a ride")
		}
		ln.leave()
		th.Send(0, 1, []byte("bye")) // FIFO behind the credit frame
	})
	cl.procs[1].TCreate("rx", mts.PrioDefault, func(th *Thread) { th.Recv(Any, 0) })
	cl.finish(t, nil)
	if st := cl.procs[0].DefaultChannel(1).Stats(); st.CtrlStandalone < 1 {
		t.Errorf("CtrlStandalone = %d after a forced advertisement, want >= 1", st.CtrlStandalone)
	}
}

// matrixCallChurn: signaled calls set up through SETUP/CONNECT, carry
// windowed go-back-N data, close through RELEASE/RELEASE-COMPLETE, over and
// over, and leave both procs with balanced lifecycle ledgers.
func matrixCallChurn(t *testing.T, env matrixEnv) {
	const cycles, msgs = 6, 8
	cl := env.build(t, 2, matrixOpt{onAccept: func(c *Channel) {
		if c.Proc().ID() == 1 {
			serveCalls(msgs)(c)
		}
	}})
	cl.procs[0].TCreate("dial", mts.PrioDefault, func(th *Thread) {
		defer th.Send(0, 1, []byte("bye"))
		for cyc := 0; cyc < cycles; cyc++ {
			ch, err := cl.procs[0].OpenCall(th, 1, CallConfig{
				Priority: 3,
				Flow:     NewWindowFlow(4),
				Error:    NewGoBackN(8, 50*time.Millisecond),
			})
			if err != nil {
				t.Errorf("cycle %d: OpenCall: %v", cyc, err)
				return
			}
			if ch.ID() == 0 {
				t.Errorf("cycle %d: OpenCall handed out channel ID 0", cyc)
			}
			srv := dialRendezvous(th, ch)
			for k := 0; k < msgs; k++ {
				ch.Send(th, srv, []byte{byte(k)})
			}
			if reply, _ := ch.Recv(th, Any); len(reply) != 1 || reply[0] != 1 {
				t.Errorf("cycle %d: serve reply = %v", cyc, reply)
			}
			if err := ch.CloseCall(th); err != nil {
				t.Errorf("cycle %d: CloseCall: %v", cyc, err)
				return
			}
		}
	})
	cl.procs[1].TCreate("keeper", mts.PrioDefault, func(th *Thread) {
		th.Recv(Any, Any) // hold the callee open until the caller says bye
	})
	cl.finish(t, nil)
	for i, p := range cl.procs {
		st := p.Lifecycle()
		if st.Opened != cycles || st.Closed != cycles || st.VCsBound != cycles || st.VCsReleased != cycles {
			t.Errorf("proc %d lifecycle %+v, want %d opens/closes and VC bind/release pairs", i, st, cycles)
		}
	}
	if st := cl.procs[0].Lifecycle(); st.SetupsSent != cycles {
		t.Errorf("caller setups sent = %d, want %d", st.SetupsSent, cycles)
	}
	if st := cl.procs[1].Lifecycle(); st.SetupsAccepted != cycles || st.SetupsRejected != 0 {
		t.Errorf("callee accepted %d rejected %d, want %d/0", st.SetupsAccepted, st.SetupsRejected, cycles)
	}
}

// matrixPeerDeath: a peer crashes. Sends gated behind its window fail and
// unblock their thread, each Send returning the typed *PeerDeadError;
// receivers parked on it wake and unwind with it — on the crashed side too,
// whose detector loses the survivor. Nothing reaches the give-up observer.
func matrixPeerDeath(t *testing.T, env matrixEnv) {
	cl := env.build(t, 2, matrixOpt{heartbeat: Heartbeat{Interval: 10 * time.Millisecond, Misses: 2}})
	gate0 := cl.procs[0].Open(1, ChannelConfig{ID: 1, Flow: NewWindowFlow(1)})
	cl.procs[1].Open(0, ChannelConfig{ID: 1, Flow: NewWindowFlow(1)})
	sent := -1
	var sendErrs []error
	var parkedErr, victimErr *PeerDeadError
	cl.procs[0].TCreate("gated", mts.PrioDefault, func(th *Thread) {
		th.Recv(Any, 1) // hello: the victim is up and both directions have channels
		cl.kill(1)
		for k := 0; k < 4; k++ {
			// Message 0 fills the window — no credit ever comes back — and
			// the rest park on the flow gate until the failure sweep fails
			// them and unblocks this thread.
			if err := gate0.Send(th, 0, []byte{byte(k)}); err != nil {
				sendErrs = append(sendErrs, err)
			}
			sent = k
			if cl.procs[0].PeerDead(1) != nil {
				return
			}
		}
	})
	cl.procs[0].TCreate("parked", mts.PrioDefault, func(th *Thread) {
		parkedErr = recoverDead(func() { th.RecvTagged(9, Any, 1) })
	})
	cl.procs[1].TCreate("victim", mts.PrioDefault, func(th *Thread) {
		th.Send(0, 0, []byte("hello"))
		victimErr = recoverDead(func() { th.Recv(Any, 0) })
	})
	cl.finish(t, nil)
	if sent < 1 {
		t.Fatalf("sender unblocked after %d sends, want >= 2 (gated sends must fail, not hang)", sent+1)
	}
	if len(sendErrs) == 0 {
		t.Error("no gated send returned an error")
	}
	for _, err := range sendErrs {
		var pd *PeerDeadError
		if !errors.As(err, &pd) || pd.Peer != 1 {
			t.Errorf("gated send returned %v, want PeerDeadError{0->1}", err)
		}
	}
	if parkedErr == nil || parkedErr.Peer != 1 || parkedErr.Local != 0 {
		t.Errorf("parked receiver error = %v, want PeerDeadError{0->1}", parkedErr)
	}
	if victimErr == nil || victimErr.Peer != 0 {
		t.Errorf("victim receiver error = %v, want PeerDeadError{1->0}", victimErr)
	}
	if cl.procs[0].PeerDead(1) == nil {
		t.Error("survivor PeerDead(1) = nil after declaration")
	}
}

// matrixGroup: tree collectives — broadcast from a rotating root, a summing
// reduce, and a barrier nobody leaves early.
func matrixGroup(t *testing.T, env matrixEnv) {
	const n, rounds = 4, 5
	cl := env.build(t, n, matrixOpt{})
	members := make([]Addr, n)
	for i := range members {
		members[i] = Addr{Proc: ProcID(i)}
	}
	// Atomic: a socket carrier's frames order the members' rounds, but the
	// kernel between them is no happens-before edge the race detector sees.
	phase := make([]atomic.Int32, n)
	sum := func(acc, next []byte) []byte { return []byte{acc[0] + next[0]} }
	for i, p := range cl.procs {
		i := i
		p.TCreate("member", mts.PrioDefault, func(th *Thread) {
			g := th.Proc().NewGroup(members, GroupConfig{})
			for r := 0; r < rounds; r++ {
				root := r % n
				var payload []byte
				if i == root {
					payload = []byte{byte(r), 0xBC}
				}
				if got := g.Bcast(th, root, payload); len(got) != 2 || got[0] != byte(r) || got[1] != 0xBC {
					t.Errorf("member %d round %d: bcast got %v", i, r, got)
				}
				if res := g.Reduce(th, root, []byte{byte(i + 1)}, sum); i == root && (len(res) != 1 || res[0] != n*(n+1)/2) {
					t.Errorf("round %d: reduce = %v, want %d", r, res, n*(n+1)/2)
				}
				phase[i].Store(int32(r))
				g.Barrier(th)
				for j := range phase {
					if pj := phase[j].Load(); pj != int32(r) {
						t.Errorf("member %d left barrier %d with member %d at %d", i, r, j, pj)
					}
				}
				g.Barrier(th)
			}
		})
	}
	cl.finish(t, nil)
}

// probeEndpoint shows the core a Mem endpoint as a bare transport.Endpoint —
// no FrameCarrier, no BatchSender, like the cost-model carriers — and lets a
// test look around from inside the carrier call.
type probeEndpoint struct {
	transport.Endpoint
	onSend func(t *mts.Thread, m *transport.Message)
}

func (e *probeEndpoint) Send(t *mts.Thread, m *transport.Message) {
	if e.onSend != nil {
		e.onSend(t, m)
	}
	e.Endpoint.Send(t, m)
}

// TestEngineMatrixThreadDriverInvariants holds what the thread driver
// promises beyond the common scenarios: it is chosen by the carrier whatever
// lane count was asked for and builds one lane with no ring, keeper thread
// or lane goroutine; the carrier is handed the send system thread
// and RecvCharge the receive one, neither with the lane lock held (both may
// park); a sender is unblocked when *its* run has reached the carrier, not at
// the end of the pass; and a forced advertisement is built on the spot and
// sent by the send thread's next pass, with nothing else to wake it.
func TestEngineMatrixThreadDriverInvariants(t *testing.T) {
	mem := transport.NewMem()
	var procs [2]*Proc
	var eps [2]*probeEndpoint
	var charged []string
	for i := range procs {
		i := i
		rt := mts.New(mts.Config{Name: fmt.Sprintf("node%d", i), IdleTimeout: 10 * time.Second})
		eps[i] = &probeEndpoint{Endpoint: mem.Attach(ProcID(i), rt)}
		procs[i] = New(Config{
			ID: ProcID(i), RT: rt, Endpoint: eps[i], Flow: NewWindowFlow(8),
			SendLanes: 4, RecvLanes: 4,
			RecvCharge: func(mt *mts.Thread, n int) {
				charged = append(charged, mt.Name())
				if ln := procs[i].lanes[0]; !ln.mu.TryLock() {
					t.Error("lane lock held across RecvCharge")
				} else {
					ln.mu.Unlock()
				}
			},
		})
	}
	p := procs[0]
	ln := p.lanes[0]
	if driverName(p) != "thread" || p.Lanes() != 1 {
		t.Fatalf("driver %s with %d lanes, want the thread driver's one", driverName(p), p.Lanes())
	}
	if ln.rx != nil || p.laneThread != nil || p.laneStop != nil {
		t.Errorf("thread-driver proc built ring=%v keeper=%v stop=%v, want none",
			ln.rx != nil, p.laneThread != nil, p.laneStop != nil)
	}

	var a, b *Thread
	var st *mts.Thread // the send system thread, as the carrier sees it
	data, credits := 0, 0
	eps[0].onSend = func(mt *mts.Thread, m *transport.Message) {
		if mt == nil || mt.Name() != "ncs0-send" {
			t.Errorf("carrier handed thread %v, want the send system thread", mt)
			return
		}
		if !ln.mu.TryLock() {
			t.Error("lane lock held across the carrier call")
			return
		}
		ln.mu.Unlock()
		if m.Tag < 0 {
			if m.Tag == tagFlowAck {
				credits++
			}
			return
		}
		switch data++; data {
		case 1:
			// Park inside the carrier, as SimTCP does, until b is about to
			// queue its message behind this one: both then fall to one pass.
			st = mt
			mt.Park("probe hold")
		case 2:
			if s := a.MT().State(); s == mts.StateBlocked {
				t.Errorf("first sender still blocked (%q) while the second frame transmits: completion is per pass, not per run", a.MT().BlockReason())
			}
			if s := b.MT().State(); s != mts.StateBlocked || b.MT().BlockReason() != "ncs send" {
				t.Errorf("second sender is %v before its frame reached the carrier", s)
			}
		}
	}
	a = p.TCreate("a", mts.PrioDefault, func(th *Thread) { th.Send(0, 1, []byte("one")) })
	b = p.TCreate("b", mts.PrioDefault, func(th *Thread) {
		p.RT().Unblock(st, false)
		th.Send(0, 1, []byte("two"))

		// A forced advertisement with nothing queued behind it.
		c := p.DefaultChannel(1)
		before := credits
		ln := c.lockLane()
		c.Flow().(*WindowFlow).advertise()
		if ln.pending.empty() {
			t.Error("forced advertisement not queued on the spot")
		}
		ln.service()
		ln.mu.Unlock()
		th.Yield() // the send system thread outranks this one
		if credits != before+1 {
			t.Errorf("send thread idled on a forced advertisement: %d credit frames on the wire, want %d", credits, before+1)
		}
		th.Send(0, 1, []byte("bye"))
	})
	procs[1].TCreate("rx", mts.PrioDefault, func(th *Thread) {
		for _, want := range []string{"one", "two", "bye"} {
			if got, _ := th.Recv(Any, 0); string(got) != want {
				t.Errorf("received %q, want %q", got, want)
			}
		}
	})
	runReal(procs[:])
	if data != 3 {
		t.Errorf("carrier saw %d data frames, want 3", data)
	}
	if len(charged) != 3 {
		t.Fatalf("RecvCharge ran %d times, want 3: %v", len(charged), charged)
	}
	for _, name := range charged {
		// A message handed to a parked receiver is the receive system
		// thread's copy; one found in the store is the consumer's.
		if name != "ncs1-recv" && name != "rx" {
			t.Errorf("RecvCharge billed %q, want the receive system thread or the consumer", name)
		}
	}
	for i, p := range procs {
		if leaks := p.Leaks(); len(leaks) != 0 {
			t.Errorf("proc %d leaks: %v", i, leaks)
		}
	}
}
