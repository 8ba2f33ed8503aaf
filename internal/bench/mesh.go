package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mts"
	"repro/internal/transport"
)

// The mesh experiment drives the real channel layer (no virtual time, so
// no golden): two NCS processes over the in-process transport, meshChans
// go-back-N channels per direction, bidirectional traffic, behind
// `ncsbench -experiment mesh`. Every channel of a proc goes to its one peer,
// so the peer hash puts all six on one lane: the run shows that lane's
// scheduler — DRR shares under -weights, control piggybacked on each
// channel's own reverse data — and the idle lanes beside it.

const (
	meshChans   = 6
	meshPayload = 8 << 10
)

// MeshConfig selects one run of the pair.
type MeshConfig struct {
	Msgs    int   // messages per channel per direction
	Lanes   int   // Config.SendLanes/RecvLanes; 0 is the default
	Weights []int // DRR weights, round-robin over the channels; empty: priority+1
}

// MeshResult is what one run measured.
type MeshResult struct {
	Elapsed  time.Duration
	Lanes    int
	Channels [meshChans]core.ChannelStats // both directions summed; Weight is side 0's
	Procs    [2][]core.LaneStats
}

// MBps is the aggregate payload rate over both directions.
func (r MeshResult) MBps() float64 {
	var bytes int64
	for _, s := range r.Channels {
		bytes += s.BytesSent
	}
	return float64(bytes) / 1e6 / r.Elapsed.Seconds()
}

// Mesh runs the pair to completion.
func Mesh(cfg MeshConfig) MeshResult {
	mem := transport.NewMem()
	var procs [2]*core.Proc
	for i := range procs {
		rt := mts.New(mts.Config{Name: fmt.Sprintf("mesh%d", i), IdleTimeout: time.Minute})
		procs[i] = core.New(core.Config{
			ID: core.ProcID(i), RT: rt, Endpoint: mem.Attach(core.ProcID(i), rt),
			SendLanes: cfg.Lanes, RecvLanes: cfg.Lanes,
		})
	}
	var chans [2][meshChans]*core.Channel
	for side, p := range procs {
		for i := range chans[side] {
			cc := core.ChannelConfig{
				ID:       core.ChannelID(i + 1),
				Priority: i % core.NumChannelPriorities,
				Error:    core.NewGoBackN(8, 25*time.Millisecond),
			}
			if len(cfg.Weights) > 0 {
				cc.Weight = cfg.Weights[i%len(cfg.Weights)]
			}
			chans[side][i] = p.Open(core.ProcID(1-side), cc)
		}
	}
	// Threads per side in TCreate order tx0, rx0, tx1, rx1, ...: channel
	// i's receiver is user thread 2i+1 on the peer.
	for side, p := range procs {
		for i, c := range chans[side] {
			c, to := c, 2*i+1
			p.TCreate(fmt.Sprintf("tx%d", i), mts.PrioDefault, func(t *core.Thread) {
				buf := make([]byte, meshPayload)
				for k := 0; k < cfg.Msgs; k++ {
					c.SendTagged(t, k, to, buf)
				}
			})
			p.TCreate(fmt.Sprintf("rx%d", i), mts.PrioDefault, func(t *core.Thread) {
				buf := make([]byte, meshPayload)
				for k := 0; k < cfg.Msgs; k++ {
					c.RecvInto(t, buf, core.Any)
				}
			})
		}
	}

	start := time.Now()
	done := make(chan struct{}, len(procs))
	for _, p := range procs {
		p := p
		go func() { p.Start(); done <- struct{}{} }()
	}
	for range procs {
		<-done
	}
	res := MeshResult{Elapsed: time.Since(start), Lanes: procs[0].Lanes()}
	for i := range res.Channels {
		s := &res.Channels[i]
		s.Weight = chans[0][i].Stats().Weight
		for side := range chans {
			cs := chans[side][i].Stats()
			s.Sent += cs.Sent
			s.BytesSent += cs.BytesSent
			s.CtrlPiggybacked += cs.CtrlPiggybacked
			s.CtrlStandalone += cs.CtrlStandalone
		}
	}
	for side, p := range procs {
		res.Procs[side] = p.LaneStats()
	}
	return res
}

// RenderMesh formats one run: per-channel rows, then per-lane scheduler
// counters.
func RenderMesh(cfg MeshConfig, r MeshResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Mesh — 2 procs x %d GBN channels/direction, %d x %d KB each way (lanes=%d)\n",
		meshChans, cfg.Msgs, meshPayload>>10, r.Lanes)
	fmt.Fprintf(&b, "%-8s %4s %6s %8s %10s %9s %9s\n",
		"channel", "prio", "weight", "msgs", "MB/s", "piggy", "standal.")
	for i, s := range r.Channels {
		fmt.Fprintf(&b, "%-8d %4d %6d %8d %10.1f %9d %9d\n",
			i+1, i%core.NumChannelPriorities, s.Weight,
			s.Sent, float64(s.BytesSent)/1e6/r.Elapsed.Seconds(),
			s.CtrlPiggybacked, s.CtrlStandalone)
	}
	fmt.Fprintf(&b, "aggregate: %.1f MB/s in %v\n\n", r.MBps(), r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "%-12s %6s %6s %10s\n",
		"lane", "chans", "piggy%", "drr_rnds")
	for side, lanes := range r.Procs {
		for _, ls := range lanes {
			fmt.Fprintf(&b, "proc%d/lane%-2d %5d %6.1f %10d\n",
				side, ls.Lane, ls.Channels, 100*ls.PiggyShare, ls.DRRRounds)
		}
	}
	return b.String()
}
