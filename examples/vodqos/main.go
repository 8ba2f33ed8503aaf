// Video-on-demand QOS demo (the paper's Figure 5): one NCS process pair
// runs two *channels*, each with its own flow-control and error-control
// discipline — the per-application QoS selection the paper's NCS_init
// makes, here made per traffic class on a single fabric:
//
//   - channel 1 "video": rate-paced (token bucket at the playback rate),
//     high priority — steady cadence for the viewer.
//   - channel 2 "bulk": window flow + go-back-N — reliable throughput for
//     the parallel application sharing the pair, over a transport that
//     drops 20% of *everything* on the bulk channel: data frames, credit
//     advertisements, and go-back-N acks alike. Nothing is protected —
//     the cumulative-credit window protocol heals lost credits (any later
//     advertisement supersedes a dropped one, and the periodic window
//     sync re-advertises on idle), while go-back-N recovers the data.
//
// The demo shows the stream's inter-frame jitter staying tight and its
// delivery untouched while the bulk channel's window holds its full depth
// through heavy control-plane loss next to it — channel isolation plus
// loss-proof flow control, end-to-end.
//
//	go run ./examples/vodqos
package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mts"
	"repro/internal/transport"
)

func main() {
	const (
		frames    = 60
		frameSize = 16 * 1024
		frameRate = 30.0 // frames/second
		bulkMsgs  = 64
		bulkSize  = 256 * 1024
	)

	mem := transport.NewMem()
	// Break the bulk channel wholesale — data AND control. Credits and
	// acks die as readily as payload frames; the credit protocol's
	// cumulative advertisements and window-sync timer absorb the loss, so
	// bulk window throughput holds while the video channel sharing the
	// process pair never notices.
	mem.SetDropRate(0.20, 1995)
	mem.SetDropClass(func(m *transport.Message) bool { return m.Channel == 2 })

	newProc := func(id int) *core.Proc {
		rt := mts.New(mts.Config{Name: fmt.Sprintf("proc%d", id), IdleTimeout: 60 * time.Second})
		return core.New(core.Config{
			ID:       core.ProcID(id),
			RT:       rt,
			Endpoint: mem.Attach(transport.ProcID(id), rt),
		})
	}
	server := newProc(0)
	client := newProc(1)

	gbn := func() core.ErrorControl { return core.NewGoBackN(8, 20*time.Millisecond) }
	video0 := server.Open(1, core.ChannelConfig{
		ID: 1, Priority: 7,
		Flow: core.NewRateFlow(frameRate*frameSize, frameSize),
	})
	bulk0 := server.Open(1, core.ChannelConfig{
		ID: 2, Priority: 0,
		Flow: core.NewWindowFlow(4), Error: gbn(),
	})
	video1 := client.Open(0, core.ChannelConfig{ID: 1, Priority: 7})
	bulk1 := client.Open(0, core.ChannelConfig{
		ID: 2, Priority: 0,
		Flow: core.NewWindowFlow(4), Error: gbn(),
	})

	var arrivals []time.Time
	server.TCreate("stream", mts.PrioDefault, func(t *core.Thread) {
		frame := make([]byte, frameSize)
		for i := 0; i < frames; i++ {
			video0.Send(t, 0, frame)
		}
	})
	server.TCreate("bulk", mts.PrioDefault, func(t *core.Thread) {
		blob := make([]byte, bulkSize)
		for i := 0; i < bulkMsgs; i++ {
			bulk0.Send(t, 1, blob)
		}
	})
	client.TCreate("play", mts.PrioDefault, func(t *core.Thread) {
		for i := 0; i < frames; i++ {
			video1.Recv(t, core.Any)
			arrivals = append(arrivals, time.Now())
		}
	})
	client.TCreate("sink", mts.PrioDefault, func(t *core.Thread) {
		for i := 0; i < bulkMsgs; i++ {
			bulk1.Recv(t, core.Any)
		}
	})

	procs := []*core.Proc{server, client}
	start := time.Now()
	done := make(chan struct{}, len(procs))
	for _, p := range procs {
		p := p
		go func() {
			p.Start()
			done <- struct{}{}
		}()
	}
	for range procs {
		<-done
	}
	elapsed := time.Since(start)

	// Inter-frame statistics.
	var worst, sum time.Duration
	for i := 1; i < len(arrivals); i++ {
		gap := arrivals[i].Sub(arrivals[i-1])
		sum += gap
		if gap > worst {
			worst = gap
		}
	}
	mean := sum / time.Duration(len(arrivals)-1)
	rate := frameRate // shed the untyped constant so the division is runtime float math
	wantGap := time.Duration(float64(time.Second) / rate)

	printStats := func(name string, s core.ChannelStats) {
		fmt.Printf("  channel %-5s flow=%-6s error=%-9s sent %3d msgs / %5.1f KB, delivered %3d msgs / %5.1f KB",
			name, s.Flow, s.Error, s.Sent, float64(s.BytesSent)/1024, s.Received, float64(s.BytesReceived)/1024)
		if s.Lane >= 0 {
			// Sharded mode: the lane scheduler's view of this channel.
			fmt.Printf(" [lane %d]", s.Lane)
		}
		fmt.Println()
	}
	printLanes := func(name string, p *core.Proc) {
		ls := p.LaneStats()
		if ls == nil {
			return // classic single-lane engine (GOMAXPROCS=1): no lane scheduler
		}
		fmt.Printf("%s lanes:\n", name)
		for _, l := range ls {
			fmt.Printf("  lane %d: %d channels, piggy share %4.1f%%\n",
				l.Lane, l.Channels, 100*l.PiggyShare)
		}
	}
	fmt.Printf("VOD stream: %d frames at %.0f fps target while %d MB of lossy bulk traffic shared the proc pair\n",
		frames, frameRate, bulkMsgs*bulkSize>>20)
	fmt.Printf("  total %v, mean inter-frame gap %v (target %v), worst gap %v\n",
		elapsed.Round(time.Millisecond), mean.Round(time.Millisecond), wantGap.Round(time.Millisecond), worst.Round(time.Millisecond))
	fmt.Println("server side:")
	printStats("video", video0.Stats())
	printStats("bulk", bulk0.Stats())
	fmt.Println("client side:")
	printStats("video", video1.Stats())
	printStats("bulk", bulk1.Stats())
	printLanes("server", server)
	printLanes("client", client)
	bulkFlow := bulk0.Flow().(*core.WindowFlow)
	clientFlow := bulk1.Flow().(*core.WindowFlow)
	fmt.Printf("bulk recovery: %d frames dropped by the fabric (data, credits, and acks alike), %d retransmissions, video untouched\n",
		mem.Dropped(), bulk0.Error().(*core.GoBackN).Retransmissions())
	fmt.Printf("credit protocol: %d stale adverts superseded, %d periodic window syncs, %d credits uncollected at exit\n",
		bulkFlow.StaleCredits(), clientFlow.Syncs(), bulkFlow.Outstanding())
	// The bulk stream is one-way, so the client has no data frames for its
	// credits and acks to ride — the win here is cumulative
	// advertisements: one frame covers a burst of deliveries, where a
	// per-message protocol sends one credit AND one ack per message
	// (2.0/msg) before loss-induced re-acks.
	cs := bulk1.Stats()
	fmt.Printf("control plane: client sent %d control words piggybacked on data, %d standalone frames (%.2f per delivered message; one credit + one ack each, 2.0+, without cumulative advertisements)\n",
		cs.CtrlPiggybacked, cs.CtrlStandalone, float64(cs.CtrlStandalone)/float64(max(cs.Received, 1)))
	fmt.Println("rate flow held the stream cadence; window+go-back-N carried the bulk class through 20% loss on its own channel")
}
