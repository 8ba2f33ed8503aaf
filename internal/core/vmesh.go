package core

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/sonet"
	"repro/internal/transport"
)

// This file is the virtual-time mesh harness: N procs — several lanes, DRR,
// piggybacked control and all — executing on one discrete-event loop
// with a shared clock. It is how the modeled scaling results at N ∈ {64,
// 256, 1024} are produced: lane engines run as vclock events (each node's
// runtime is virtual, and the engineDriver seam in lane.go picks the virtual
// driver), frames travel as cost-model events on a frame-granular NYNET
// fabric (netsim.NewFrameMesh via transport.SimMesh), and every timer rides
// the engine's virtual timer.
//
// Determinism contract: a virtual mesh has no lane goroutines — events and
// the threads they dispatch execute strictly one at a time in the engine's
// goroutine, ordered by the event queue's (time, insertion seq) heap — so
// two runs of the same workload with the same seed produce byte-identical
// timelines (assert with TimelineHash). Anything order-sensitive inside
// core therefore must not depend on Go map iteration or goroutine
// scheduling; see Proc.channelsOrdered.

// VirtualMeshConfig parameterizes NewVirtualMesh. The zero value models the
// calibrated 1995 NYNET LAN with 2 lanes per proc and default disciplines.
type VirtualMeshConfig struct {
	// Lanes is the per-proc lane count (default 2). Values > 1 run the lane
	// engines as clock events (the virtual driver); 1 builds procs whose one
	// lane the two system threads execute (the thread driver).
	Lanes int
	// Flow and Error are per-channel discipline templates, forked for every
	// default channel exactly as Config.Flow/Config.Error (nil = none).
	Flow  FlowControl
	Error ErrorControl
	// Admission is the per-proc call admission policy for signaled opens
	// (nil = admit everything), passed through to Config.Admission.
	Admission AdmissionPolicy
	// OnAccept runs for every admitted incoming signaled call, on every
	// proc (use Channel.Proc to tell whose); passed through to
	// Config.OnAccept.
	OnAccept func(*Channel)
	// Heartbeat configures every proc's failure detector (passed through to
	// Config.Heartbeat). Detection timers ride the engine's virtual clock,
	// so kill suites are deterministic.
	Heartbeat Heartbeat
	// Net overrides the fabric parameters; zero fields default to the NYNET
	// calibration (TAXI host links, 10 µs propagation and switch latency).
	Net netsim.FrameMeshConfig
	// MaxTime bounds the simulated horizon (default 1h) so a deadlocked
	// workload fails instead of looping.
	MaxTime time.Duration
}

// VirtualMesh is N procs on one discrete-event loop. Proc i is host i on
// the fabric and node i of the engine.
type VirtualMesh struct {
	Eng   *sim.Engine
	Net   *netsim.Network
	Nodes []*sim.Node
	Procs []*Proc
	Seed  int64
}

// NewVirtualMesh builds an n-proc virtual-time mesh. The seed does not
// perturb the harness itself — it seeds the workload streams handed out by
// Rand, which is where run-to-run variation (payload sizes, traffic order)
// must come from for the determinism contract to be testable.
func NewVirtualMesh(n int, seed int64, cfg VirtualMeshConfig) *VirtualMesh {
	if n < 2 {
		panic("core: a virtual mesh needs at least two procs")
	}
	lanes := cfg.Lanes
	if lanes == 0 {
		lanes = 2
	}
	net := cfg.Net
	if net.HostLinkBps == 0 {
		net.HostLinkBps = sonet.EffectiveATMBps(sonet.TAXIRate, sonet.TAXIPayloadFraction)
	}
	if net.HostLinkProp == 0 {
		net.HostLinkProp = 10 * time.Microsecond
	}
	if net.SwitchLatency == 0 {
		net.SwitchLatency = 10 * time.Microsecond
	}
	maxTime := cfg.MaxTime
	if maxTime == 0 {
		maxTime = time.Hour
	}

	eng := sim.NewEngine()
	eng.SetMaxTime(maxTime)
	fabric := netsim.NewFrameMesh(eng, n, net)
	mesh := transport.NewSimMesh(fabric)
	vm := &VirtualMesh{Eng: eng, Net: fabric, Seed: seed}
	for i := 0; i < n; i++ {
		node := eng.NewNode(fmt.Sprintf("vp%d", i))
		p := New(Config{
			ID:        ProcID(i),
			RT:        node.RT(),
			Endpoint:  mesh.Attach(i),
			SendLanes: lanes,
			RecvLanes: lanes,
			Flow:      cfg.Flow,
			Error:     cfg.Error,
			Admission: cfg.Admission,
			OnAccept:  cfg.OnAccept,
			Heartbeat: cfg.Heartbeat,
		})
		vm.Nodes = append(vm.Nodes, node)
		vm.Procs = append(vm.Procs, p)
	}
	return vm
}

// Rand returns a deterministic random stream for workload generation,
// derived from the mesh seed and a caller-chosen stream number (typically
// the proc index). Streams with distinct numbers are independent.
func (vm *VirtualMesh) Rand(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(vm.Seed<<20 ^ stream ^ 0x5e37_79b9_7f4a_7c15))
}

// Run executes the mesh to completion (every thread of every proc done).
func (vm *VirtualMesh) Run() { vm.Eng.Run() }

// Now returns the current virtual time as a duration since start.
func (vm *VirtualMesh) Now() time.Duration { return time.Duration(vm.Eng.Now()) }

// TimelineHash fingerprints the run: the engine's event-timeline hash
// extended with every proc's sent/received totals, so both "when things
// happened" and "what got through" must match for two runs to compare
// equal. Byte-identical for equal seeds, different (overwhelmingly) for
// different seeds once the workload consults Rand.
func (vm *VirtualMesh) TimelineHash() string {
	var h uint64 = 14695981039346656037
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	for _, p := range vm.Procs {
		mix(uint64(p.Sent()))
		mix(uint64(p.Received()))
	}
	return fmt.Sprintf("%s-%016x", vm.Eng.TimelineHash(), h)
}
