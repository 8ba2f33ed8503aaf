package bench

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mts"
)

// The virtual-mesh experiments are what the virtual-time execution mode
// exists for: N procs — sharded lanes, DRR, piggybacked control, signaling, failure
// detection and all — on one deterministic discrete-event loop
// (core.NewVirtualMesh). Every number is modeled, and each run's timeline
// hash is the determinism contract: the same parameters reproduce it byte
// for byte on any host.

// --- Scale: collectives, incast and a ring at any N -----------------------

const (
	scaleBcast      = 16 << 10
	scaleIncastSize = 8 << 10
	scaleMsgs       = 4 // per incast sender and per ring proc
)

// ScaleRow is one workload of the sweep: modeled µs per operation
// (collectives) or modeled aggregate MB/s (incast, ring), and the timeline.
type ScaleRow struct {
	Us       float64
	MBps     float64
	Timeline string
}

// ScaleResult is the sweep at one (N, seed). The tree's advantage over the
// linear form widens with N: ceil(log2 N) parallel hops against N-1
// serialized sends.
type ScaleResult struct {
	N                          int
	Seed                       int64
	BarrierTree, BcastTree     ScaleRow
	BarrierLinear, BcastLinear ScaleRow
	Incast, Ring, RingRerun    ScaleRow
}

func (r ScaleResult) BarrierSpeedup() float64 { return r.BarrierLinear.Us / r.BarrierTree.Us }
func (r ScaleResult) BcastSpeedup() float64   { return r.BcastLinear.Us / r.BcastTree.Us }

// Reproduced reports whether the ring's same-seed rerun gave the same
// timeline.
func (r ScaleResult) Reproduced() bool { return r.Ring.Timeline == r.RingRerun.Timeline }

// scaleCollective runs barrier or bcast across the mesh's default channels.
// Dissemination barriers cost n·log2(n) messages per operation and modeled
// values are averages, not samples, so a handful of iterations suffices —
// fewer at the largest N.
func scaleCollective(op string, n, fanout int, seed int64) ScaleRow {
	iters, payload := 8, 0
	if n >= 1024 {
		iters = 4
	}
	if op == "bcast" {
		payload = scaleBcast
	}
	vm := core.NewVirtualMesh(n, seed, core.VirtualMeshConfig{})
	members := groupMembers(n)
	for _, p := range vm.Procs {
		p.TCreate("coll", mts.PrioDefault, collectiveBody(p, members, core.GroupConfig{Fanout: fanout}, op, iters, payload))
	}
	vm.Run()
	return ScaleRow{Us: float64(vm.Now().Nanoseconds()) / 1e3 / float64(iters), Timeline: vm.TimelineHash()}
}

// scaleIncast pours windowed traffic from n-1 senders into proc 0; the
// aggregate is bounded by the receiver's downlink.
func scaleIncast(n int, seed int64) ScaleRow {
	vm := core.NewVirtualMesh(n, seed, core.VirtualMeshConfig{Flow: core.NewWindowFlow(8)})
	total := (n - 1) * scaleMsgs
	vm.Procs[0].TCreate("sink", mts.PrioDefault, func(t *core.Thread) {
		for k := 0; k < total; k++ {
			t.Recv(core.Any, core.Any)
		}
	})
	for _, p := range vm.Procs[1:] {
		p.TCreate("src", mts.PrioDefault, func(t *core.Thread) {
			payload := make([]byte, scaleIncastSize)
			for k := 0; k < scaleMsgs; k++ {
				t.Send(0, 0, payload)
			}
		})
	}
	vm.Run()
	return ScaleRow{MBps: float64(total*scaleIncastSize) / 1e6 / vm.Now().Seconds(), Timeline: vm.TimelineHash()}
}

// scaleRing is the all-lanes-busy shape: every proc sends to its successor
// and receives from its predecessor. The seed picks every payload size, so
// this is also the determinism probe.
func scaleRing(n int, seed int64) ScaleRow {
	vm := core.NewVirtualMesh(n, seed, core.VirtualMeshConfig{})
	totalBytes := 0
	for i, p := range vm.Procs {
		i := i
		rng := vm.Rand(int64(i))
		sizes := make([]int, scaleMsgs)
		for k := range sizes {
			sizes[k] = 64 + rng.Intn(4096)
			totalBytes += sizes[k]
		}
		p.TCreate("ring", mts.PrioDefault, func(t *core.Thread) {
			next := core.ProcID((i + 1) % n)
			prev := core.ProcID((i - 1 + n) % n)
			for _, sz := range sizes {
				t.Send(0, next, make([]byte, sz))
			}
			for range sizes {
				t.Recv(core.Any, prev)
			}
		})
	}
	vm.Run()
	return ScaleRow{MBps: float64(totalBytes) / 1e6 / vm.Now().Seconds(), Timeline: vm.TimelineHash()}
}

// Scale runs the sweep on an n-proc virtual mesh (n >= 2); the ring runs
// twice to show the determinism contract.
func Scale(n int, seed int64) ScaleResult {
	return ScaleResult{N: n, Seed: seed,
		BarrierTree:   scaleCollective("barrier", n, 0, seed),
		BcastTree:     scaleCollective("bcast", n, 0, seed),
		BarrierLinear: scaleCollective("barrier", n, linearFanout, seed),
		BcastLinear:   scaleCollective("bcast", n, linearFanout, seed),
		Incast:        scaleIncast(n, seed),
		Ring:          scaleRing(n, seed),
		RingRerun:     scaleRing(n, seed),
	}
}

// RenderScale formats the sweep.
func RenderScale(r ScaleResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scale sweep — %d procs on one virtual-time event loop (seed %d)\n", r.N, r.Seed)
	fmt.Fprintf(&b, "%-22s %14s %14s  %s\n", "workload", "modeled_us/op", "modeled_MB/s", "timeline")
	for _, w := range []struct {
		name string
		row  ScaleRow
	}{
		{"barrier/tree", r.BarrierTree}, {"bcast/tree", r.BcastTree},
		{"barrier/linear", r.BarrierLinear}, {"bcast/linear", r.BcastLinear},
		{"incast", r.Incast}, {"mesh-ring", r.Ring}, {"mesh-ring (rerun)", r.RingRerun},
	} {
		usCol, mbCol := "-", "-"
		if w.row.Us > 0 {
			usCol = fmt.Sprintf("%.1f", w.row.Us)
		}
		if w.row.MBps > 0 {
			mbCol = fmt.Sprintf("%.2f", w.row.MBps)
		}
		fmt.Fprintf(&b, "%-22s %14s %14s  %s\n", w.name, usCol, mbCol, w.row.Timeline)
	}
	verdict := "REPRODUCED"
	if !r.Reproduced() {
		verdict = "DIVERGED — determinism contract violated"
	}
	fmt.Fprintf(&b, "\ndeterminism: same seed ring timeline %s\n", verdict)
	fmt.Fprintf(&b, "tree vs linear (modeled): barrier %.2fx, bcast %.2fx (ceil(log2 %d) = %d parallel hops vs %d serial sends)\n",
		r.BarrierSpeedup(), r.BcastSpeedup(), r.N, bits.Len(uint(r.N-1)), r.N-1)
	return b.String()
}

// --- Churn: the control plane under admission overload --------------------

const (
	churnProcs  = 256
	churnCycles = 4
	churnMsgs   = 2
	vmeshSeed   = 7 // churn and faults
)

// ChurnResult is one churn run. Leaks counts lifecycle state left behind
// (opened != closed, a VC still bound, a timer armed, a ring entry
// undrained); a zero RejectionRate means the overload stopped applying.
type ChurnResult struct {
	Procs         int
	Channels      int64   // calls completed, counted once per channel
	SetupP50Us    float64 // SETUP→CONNECT over successful handshakes
	SetupP99Us    float64
	ChansPerSec   float64 // per modeled second
	RejectionRate float64 // REJECTs per SETUP sent
	Leaks         int
	Timeline      string
}

// percentiles sorts the samples and reads p50 and p99 off them.
func percentiles(samples []float64) (p50, p99 float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	sort.Float64s(samples)
	at := func(p float64) float64 { return samples[int(p*float64(len(samples)-1))] }
	return at(0.50), at(0.99)
}

// Churn has 256 procs each dial their ring successor four times — 1,024
// signaled calls, every one a full SETUP/CONNECT, a short transfer and the
// RELEASE handshake — through a token-bucket admission policy deliberately
// tighter (burst 32) than the opening storm (256 simultaneous first dials).
func Churn() ChurnResult {
	const n = churnProcs
	var latencies []float64
	vm := core.NewVirtualMesh(n, vmeshSeed, core.VirtualMeshConfig{
		Lanes:     2,
		Admission: core.NewTokenBucketAdmission(100_000, 32),
		OnAccept: func(c *core.Channel) {
			c.Proc().TCreate("serve", mts.PrioDefault, func(th *core.Thread) {
				opener := c.PeerThread()
				c.Send(th, opener, []byte{0})
				for k := 0; k < churnMsgs; k++ {
					c.Recv(th, core.Any)
				}
				c.Send(th, opener, []byte{1})
			})
		},
	})
	for i, p := range vm.Procs {
		i, p := i, p
		p.TCreate("keeper", mts.PrioDefault, func(th *core.Thread) { th.Recv(core.Any, core.Any) })
		p.TCreate("dial", mts.PrioDefault, func(th *core.Thread) {
			peer := core.ProcID((i + 1) % n)
			rng := vm.Rand(int64(i))
			for cyc := 0; cyc < churnCycles; cyc++ {
				var ch *core.Channel
				for ch == nil {
					start := vm.Now()
					c, err := p.OpenCall(th, peer, core.CallConfig{
						Flow:  core.NewWindowFlow(4),
						Error: core.NewGoBackN(8, 2*time.Millisecond),
					})
					if err != nil {
						continue // admission rejection; the wire round trip paces the retry
					}
					latencies = append(latencies, float64(vm.Now()-start)/float64(time.Microsecond))
					ch = c
				}
				// Announce/serve rendezvous: the server's first message
				// carries its thread index in the source address.
				_, from := ch.Recv(th, core.Any)
				for k := 0; k < churnMsgs; k++ {
					buf := make([]byte, 1+rng.Intn(256))
					buf[0] = byte(k)
					ch.Send(th, from.Thread, buf)
				}
				ch.Recv(th, core.Any)
				if err := ch.CloseCall(th); err != nil {
					panic(err)
				}
			}
			th.Send(0, peer, []byte("bye"))
		})
	}
	vm.Run()

	res := ChurnResult{Procs: n, Timeline: vm.TimelineHash()}
	var opened, setups, rejected int64
	for _, p := range vm.Procs {
		res.Leaks += len(p.Leaks())
		st := p.Lifecycle()
		opened += st.Opened
		setups += st.SetupsSent
		rejected += st.SetupsRejected
	}
	res.Channels = opened / 2 // each channel opens on both ends
	if setups > 0 {
		res.RejectionRate = float64(rejected) / float64(setups)
	}
	if secs := vm.Now().Seconds(); secs > 0 {
		res.ChansPerSec = float64(res.Channels) / secs
	}
	res.SetupP50Us, res.SetupP99Us = percentiles(latencies)
	return res
}

// RenderChurn formats the run.
func RenderChurn(r ChurnResult) string {
	return fmt.Sprintf(`Churn — %d signaled calls across %d virtual-time procs under a burst-32 token bucket (seed %d)
setup latency (modeled)   p50 %.3f us, p99 %.3f us
churn rate                %.1f channels per modeled second
rejection rate            %.5f
leaked lifecycle entries  %d
timeline                  %s
`, r.Channels, r.Procs, vmeshSeed, r.SetupP50Us, r.SetupP99Us, r.ChansPerSec, r.RejectionRate, r.Leaks, r.Timeline)
}

// --- Faults: one host killed mid-traffic ----------------------------------

const (
	faultsProcs  = 64
	faultsKillAt = 5 * time.Millisecond
)

// FaultsResult is one kill run. The detector's contract: every waiter gets
// the typed error (TypedDeaths == Procs), p99 stays within BoundUs —
// (Misses+1)*Interval plus one tick of scheduling slop — and nothing leaks.
type FaultsResult struct {
	Procs       int
	Heartbeat   core.Heartbeat
	DetectP50Us float64
	DetectP99Us float64
	BoundUs     float64
	TypedDeaths int
	Leaks       int
	Timeline    string
}

// recoverPeerDead runs fn and reports whether it unwound with a
// *core.PeerDeadError; any other panic propagates.
func recoverPeerDead(fn func()) (dead bool) {
	defer func() {
		if r := recover(); r != nil {
			var pd *core.PeerDeadError
			if err, is := r.(error); !is || !errors.As(err, &pd) {
				panic(r)
			}
			dead = true
		}
	}()
	fn()
	return false
}

// Faults has every observer hold a warmed channel to one victim and park on
// a targeted receive; the victim's host is killed at faultsKillAt. Each
// observer's heartbeat detector declares it independently and the failure
// sweep unblocks the parked receive with *core.PeerDeadError, so the wakeup
// instant minus the kill instant is one detection-latency sample (detection
// and fail-fast teardown are the same sweep).
func Faults() FaultsResult {
	const n = faultsProcs
	hb := core.Heartbeat{Interval: time.Millisecond, Misses: 3}
	victim := core.ProcID(n - 1)
	res := FaultsResult{Procs: n, Heartbeat: hb,
		BoundUs: float64(time.Duration(hb.Misses+2) * hb.Interval / time.Microsecond)}
	var latencies []float64
	vm := core.NewVirtualMesh(n, vmeshSeed, core.VirtualMeshConfig{Heartbeat: hb, MaxTime: time.Second})
	vm.Eng.Schedule(faultsKillAt, func() { vm.Net.KillHost(int(victim)) })
	for i, p := range vm.Procs[:n-1] {
		rng := vm.Rand(int64(i))
		p.TCreate("obs", mts.PrioDefault, func(th *core.Thread) {
			th.Send(0, victim, make([]byte, 64+rng.Intn(512)))
			th.Recv(core.Any, victim) // ack: the pair is now mutually monitored
			if recoverPeerDead(func() { th.Recv(core.Any, victim) }) {
				latencies = append(latencies, float64(vm.Now()-faultsKillAt)/float64(time.Microsecond))
				res.TypedDeaths++
			}
		})
	}
	vm.Procs[victim].TCreate("victim", mts.PrioDefault, func(th *core.Thread) {
		for k := 0; k < n-1; k++ {
			_, from := th.Recv(core.Any, core.Any)
			th.Send(from.Thread, from.Proc, []byte{1})
		}
		if recoverPeerDead(func() { th.Recv(core.Any, 0) }) {
			res.TypedDeaths++
		}
	})
	vm.Run()
	for _, p := range vm.Procs {
		res.Leaks += len(p.Leaks())
	}
	res.Timeline = vm.TimelineHash()
	res.DetectP50Us, res.DetectP99Us = percentiles(latencies)
	return res
}

// RenderFaults formats the run.
func RenderFaults(r FaultsResult) string {
	return fmt.Sprintf(`Faults — %d virtual-time procs, one host killed at %v (heartbeat %v x %d misses, seed %d)
detection latency (modeled)  p50 %.0f us, p99 %.0f us (bound %.0f us)
typed deaths                 %d of %d
leaked lifecycle entries     %d
timeline                     %s
`, r.Procs, faultsKillAt, r.Heartbeat.Interval, r.Heartbeat.Misses, vmeshSeed,
		r.DetectP50Us, r.DetectP99Us, r.BoundUs, r.TypedDeaths, r.Procs, r.Leaks, r.Timeline)
}
