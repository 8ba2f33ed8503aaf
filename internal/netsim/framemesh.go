package netsim

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// FrameMeshConfig parameterizes a frame-granular switched mesh (see
// NewFrameMesh).
type FrameMeshConfig struct {
	// HostLinkBps is the host<->switch payload rate.
	HostLinkBps float64
	// HostLinkProp is the host<->switch propagation delay.
	HostLinkProp time.Duration
	// SwitchLatency is the per-frame forwarding latency through the fabric.
	SwitchLatency time.Duration
	// Loss is the probability that a frame is dropped as it leaves its
	// sender, drawn per frame from the network's seeded loss source
	// (SeedLoss) and counted in FaultDrops. Zero draws nothing.
	Loss float64
}

// NewFrameMesh builds n hosts star-wired through one output-queued switch at
// *frame* granularity: a whole wire frame is one transmission unit, routed
// by Unit.DstHost instead of a provisioned VC. The cell-granular NewATMLAN
// cannot serve thousand-host meshes — its atm.VCFor numbering addresses at most
// 255 hosts and its full VC mesh is O(n²) routes — while this fabric keeps
// O(n) links, no VC table, and one delivery event per frame, which is what
// lets a 1024-proc virtual mesh stay cheap. Serialization on the sender's
// uplink, the forwarding latency, and serialization on the receiver's
// downlink still model the NYNET per-hop costs, so contention at a hot
// receiver (incast) appears as downlink queueing exactly as on the
// cell-granular model.
func NewFrameMesh(eng *sim.Engine, n int, cfg FrameMeshConfig) *Network {
	if n < 1 {
		panic("netsim: frame mesh needs at least one host")
	}
	net := &Network{eng: eng, kind: "frame-mesh", receive: make([]Port, n), loss: cfg.Loss}
	if cfg.Loss > 0 {
		net.SeedLoss(0)
	}
	down := make([]*Link, n)
	for h := 0; h < n; h++ {
		down[h] = NewLink(eng, LinkConfig{
			Name:          fmt.Sprintf("down%d", h),
			BitsPerSecond: cfg.HostLinkBps,
			Propagation:   cfg.HostLinkProp,
		}, hostPort{net, h})
	}
	// The fabric: forward each frame to the destination's downlink after
	// the switching latency. Output-queued — contention materializes on the
	// downlink's busy horizon, not here.
	demux := PortFunc(func(u Unit) {
		out := down[u.DstHost]
		if cfg.SwitchLatency > 0 {
			eng.Schedule(cfg.SwitchLatency, func() { out.Send(u) })
			return
		}
		out.Send(u)
	})
	for h := 0; h < n; h++ {
		up := NewLink(eng, LinkConfig{
			Name:          fmt.Sprintf("up%d", h),
			BitsPerSecond: cfg.HostLinkBps,
			Propagation:   cfg.HostLinkProp,
		}, demux)
		net.paths = append(net.paths, hostUplink{up})
	}
	net.down = down
	return net
}
