package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mts"
	"repro/internal/vclock"
)

// --- QoS: the lane send scheduler's priority pop ----------------------------

// The channel-QoS experiment: two NCS procs on the NYNET platform's ATM-API
// path (Approach 2, the SBA-200 model), each proc's one lane run by the
// paper's send and receive system threads. The send thread does each
// transfer itself — the trap, then the copy into the adapter's buffers — so
// requests that arrive meanwhile wait in the lane's send scheduler, and the
// order it pops them in is what the rows measure. (The virtual mesh's
// carrier takes every frame the instant it is offered, so there the
// scheduler never holds two channels' heads at once.)
//
// Row set (a) is bench/'s qos_mix_mem in modeled time: a priority-7 ping-pong
// beside a priority-0 windowed bulk stream that acknowledges every window.
// Row sets (b) and (c) saturate two channels from qosSenders threads each
// and count deliveries until the first channel has delivered its last
// message, while both were backlogged. A sending thread has one send
// outstanding, and a service pass runs until nothing admissible is queued,
// so a channel's share of the lane follows its blocked senders: the pop
// order decides which frame of a pass leaves first — the ping's wait in (a)
// — not which channel is left out of it.

const (
	qosPingSize  = 256
	qosPingsSolo = 100
	qosBulkSize  = 32 << 10
	qosWindow    = 8
	qosBulkMsgs  = 160
	qosSenders   = 4
	qosShareMsgs = 120 // per channel, split over its senders
)

// QoSMixRow is one row of set (a): round trips of the ping channel and the
// bulk channel's goodput, both in modeled time.
type QoSMixRow struct {
	Label    string
	Pings    int
	P50, P99 time.Duration
	BulkMBps float64
}

// QoSShareRow is one row of sets (b) and (c): two channels' priorities and
// their shares of the deliveries made until the first of them finished.
type QoSShareRow struct {
	Label string
	Prio  [2]int
	Share [2]float64
	// FirstDone is the modeled time the first channel delivered its last
	// message.
	FirstDone time.Duration
}

// QoSResult is the whole experiment.
type QoSResult struct {
	Mix   []QoSMixRow
	Share []QoSShareRow
}

// QoS runs every row.
func QoS() QoSResult {
	return QoSResult{
		Mix: []QoSMixRow{
			qosMix("ping alone", true, false),
			qosMix("bulk alone", false, true),
			qosMix("ping + bulk", true, true),
		},
		Share: []QoSShareRow{
			qosShare("equal priority", 3, 3),
			qosShare("prio 6 vs prio 0", 6, 0),
		},
	}
}

// qosPair is the two-proc HSM cluster with channels 1 and 2 routed.
func qosPair() (*Cluster, []*core.Proc) {
	c, procs := NewNCSCluster(NYNET1995(), 2, true, false)
	c.Net.InstallChannelRoutes(1)
	c.Net.InstallChannelRoutes(2)
	return c, procs
}

// qosMix runs set (a): with ping, proc 0's client (thread 0) bounces
// qosPingSize bytes off proc 1's server on channel 1 at priority 7 —
// qosPingsSolo times alone, for as long as the bulk stream runs beside it;
// with bulk, proc 0's sender (thread 1) streams qosBulkMsgs messages to
// proc 1's receiver on channel 2 at priority 0 under WindowFlow(qosWindow),
// and the receiver acknowledges every qosWindow messages.
func qosMix(label string, ping, bulk bool) QoSMixRow {
	c, procs := qosPair()
	now := func() time.Duration { return time.Duration(c.Eng.Now()) }
	open := func(side int, id core.ChannelID, prio int, flow core.FlowControl) *core.Channel {
		return procs[side].Open(core.ProcID(1-side), core.ChannelConfig{ID: id, Priority: prio, Flow: flow})
	}
	var rtts []time.Duration
	var bulkDone time.Duration
	pingC, pingS := open(0, 1, 7, nil), open(1, 1, 7, nil)
	bulkS, bulkR := open(0, 2, 0, core.NewWindowFlow(qosWindow)), open(1, 2, 0, core.NewWindowFlow(qosWindow))

	procs[0].TCreate("client", mts.PrioDefault, func(t *core.Thread) {
		if !ping {
			return
		}
		buf := make([]byte, qosPingSize)
		for k := 0; bulk && bulkDone == 0 || !bulk && k < qosPingsSolo; k++ {
			s := now()
			pingC.Send(t, 0, buf)
			pingC.RecvInto(t, buf, 0)
			rtts = append(rtts, now()-s)
		}
		pingC.Send(t, 0, nil) // the server's stop
	})
	procs[0].TCreate("sender", mts.PrioDefault, func(t *core.Thread) {
		if !bulk {
			return
		}
		buf, ack := make([]byte, qosBulkSize), make([]byte, 8)
		for k := 1; k <= qosBulkMsgs; k++ {
			bulkS.Send(t, 1, buf)
			if k%qosWindow == 0 {
				bulkS.RecvInto(t, ack, 1)
			}
		}
	})
	procs[1].TCreate("server", mts.PrioDefault, func(t *core.Thread) {
		if !ping {
			return
		}
		buf := make([]byte, qosPingSize)
		for {
			n, _ := pingS.RecvInto(t, buf, 0)
			if n == 0 {
				return
			}
			pingS.Send(t, 0, buf[:n])
		}
	})
	procs[1].TCreate("receiver", mts.PrioDefault, func(t *core.Thread) {
		if !bulk {
			return
		}
		buf, ack := make([]byte, qosBulkSize), make([]byte, 8)
		for k := 1; k <= qosBulkMsgs; k++ {
			bulkR.RecvInto(t, buf, 1)
			if k%qosWindow == 0 {
				bulkR.Send(t, 1, ack)
			}
		}
		bulkDone = now()
	})
	c.Eng.Run()

	row := QoSMixRow{Label: label, Pings: len(rtts)}
	if len(rtts) > 0 {
		sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
		row.P50, row.P99 = rtts[len(rtts)/2], rtts[len(rtts)*99/100]
	}
	if bulkDone > 0 {
		row.BulkMBps = float64(qosBulkMsgs*qosBulkSize) / 1e6 / bulkDone.Seconds()
	}
	return row
}

// qosShare runs one row of sets (b) and (c): channel i+1 at priority
// prio[i] carries qosShareMsgs bulk messages from qosSenders threads of proc
// 0 to receiver thread i of proc 1, with no flow control.
func qosShare(label string, prioA, prioB int) QoSShareRow {
	c, procs := qosPair()
	row := QoSShareRow{Label: label, Prio: [2]int{prioA, prioB}}
	var tx, rx [2]*core.Channel
	for i, prio := range row.Prio {
		cfg := core.ChannelConfig{ID: core.ChannelID(i + 1), Priority: prio}
		tx[i], rx[i] = procs[0].Open(1, cfg), procs[1].Open(0, cfg)
	}
	var got [2]int
	var atFirst [2]int
	var firstDone vclock.Time
	for i := range rx {
		i := i
		procs[1].TCreate(fmt.Sprintf("rx%d", i), mts.PrioDefault, func(t *core.Thread) {
			buf := make([]byte, qosBulkSize)
			for got[i] < qosShareMsgs {
				rx[i].RecvInto(t, buf, core.Any)
				got[i]++
				if got[i] == qosShareMsgs && firstDone == 0 {
					firstDone, atFirst = c.Eng.Now(), got
				}
			}
		})
	}
	for i := range tx {
		for s := 0; s < qosSenders; s++ {
			i := i
			procs[0].TCreate(fmt.Sprintf("tx%d.%d", i, s), mts.PrioDefault, func(t *core.Thread) {
				buf := make([]byte, qosBulkSize)
				for k := 0; k < qosShareMsgs/qosSenders; k++ {
					tx[i].Send(t, i, buf)
				}
			})
		}
	}
	c.Eng.Run()
	for i := range row.Share {
		row.Share[i] = float64(atFirst[i]) / float64(atFirst[0]+atFirst[1])
	}
	row.FirstDone = time.Duration(firstDone)
	return row
}

// RenderQoS formats the experiment.
func RenderQoS(r QoSResult) string {
	var b strings.Builder
	b.WriteString("QoS — the lane send scheduler on the NYNET ATM-API path (Approach 2): 2 procs, one lane each, modeled time\n")
	fmt.Fprintf(&b, "(a) %d B ping-pong at priority 7 beside a WindowFlow(%d) %d x %d KB stream at priority 0, acknowledged every %d\n",
		qosPingSize, qosWindow, qosBulkMsgs, qosBulkSize>>10, qosWindow)
	fmt.Fprintf(&b, "%-12s %6s %10s %10s %10s\n", "row", "pings", "p50 RTT", "p99 RTT", "bulk MB/s")
	for _, m := range r.Mix {
		p50, p99, mbps := "-", "-", "-"
		if m.Pings > 0 {
			p50, p99 = m.P50.Round(time.Microsecond).String(), m.P99.Round(time.Microsecond).String()
		}
		if m.BulkMBps > 0 {
			mbps = fmt.Sprintf("%.3f", m.BulkMBps)
		}
		fmt.Fprintf(&b, "%-12s %6d %10s %10s %10s\n", m.Label, m.Pings, p50, p99, mbps)
	}
	fmt.Fprintf(&b, "(b), (c) two channels, %d sender threads x %d KB each, %d messages per channel; shares of the deliveries until the first channel finished\n",
		qosSenders, qosBulkSize>>10, qosShareMsgs)
	fmt.Fprintf(&b, "%-18s %6s %8s %6s %8s %12s\n", "row", "prio", "share", "prio", "share", "first done")
	for _, s := range r.Share {
		fmt.Fprintf(&b, "%-18s %6d %8.3f %6d %8.3f %12v\n", s.Label, s.Prio[0], s.Share[0], s.Prio[1], s.Share[1],
			s.FirstDone.Round(time.Microsecond))
	}
	return b.String()
}
