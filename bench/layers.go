package main

// layers.go times each layer's exported functions in isolation, with fixed
// iteration counts, and assembles the one-way message budget from those
// kernels and a traced repetition. The leaf packages (mts, ring, wire, atm,
// the carriers) are called directly — timing their public functions is the
// point; everything that goes through core uses ncs.go like the workloads.

import (
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atm"
	"repro/internal/mts"
	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/udpatm"
	"repro/internal/wire"
)

// kernels runs the isolated measurements. scale shrinks every iteration
// count (1 for a real run, less for -quick).
type kernels struct {
	scale float64
	seed  int64
	// raw caches carrier measurements by carrier and size: the budget asks
	// for the same ones the layer table reports.
	raw map[rawKey]rawCost
}

type rawKey struct {
	carrier string
	size    int
}

// rawCost is one message through a bare carrier endpoint, no core.
type rawCost struct {
	onewayNs float64 // Send call to the peer's handler running, p50
	sendNs   float64 // the Send call alone, p50
	allocs   float64 // mallocs per message, both ends
}

func (k *kernels) n(base int) int { return max(1, int(float64(base)*k.scale)) }

// med3 is the median of three runs of f.
func med3(f func() float64) float64 { return median([]float64{f(), f(), f()}) }

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func p50(d []int64) float64 { return float64(quantileInt(d, 0.5)) }

var sizeNames = []struct {
	name string
	size int
}{{"64B", 64}, {"4KB", 4 << 10}, {"64KB", 64 << 10}}

// all runs every workload-independent kernel and returns the layer metrics.
func (k *kernels) all() map[string]float64 {
	out := map[string]float64{}
	k.mts(out)
	k.ring(out)
	k.wire(out)
	k.atm(out)
	for _, s := range sizeNames {
		if s.size <= 4<<10 {
			out["transport.mem_oneway_ns_"+s.name] = k.rawCarrier("mem", s.size).onewayNs
		}
		out["tcpip.tcp_oneway_ns_"+s.name] = k.rawCarrier("tcp", s.size).onewayNs
		out["udpatm.oneway_ns_"+s.name] = k.rawCarrier("udpatm", s.size).onewayNs
	}
	out["tcpip.tcp_allocs_per_msg"] = k.rawCarrier("tcp", 4<<10).allocs
	k.coreMatch(out)
	k.coreGroup(out)
	k.coreSignal(out)
	k.sim(out)
	return out
}

func (k *kernels) mts(out map[string]float64) {
	out["mts.switch_ns"] = med3(func() float64 {
		n := k.n(50000)
		rt := mts.New(mts.Config{Name: "switch"})
		for i := 0; i < 2; i++ {
			rt.Create("yield", mts.PrioDefault, func(t *mts.Thread) {
				for j := 0; j < n; j++ {
					t.Yield()
				}
			})
		}
		start := nowNs()
		rt.Run()
		return float64(nowNs()-start) / float64(2*n)
	})

	// A foreign goroutine Posts an Unblock for a parked thread; the sample
	// ends when the thread is running again. The thread holds the runtime's
	// CPU token from its ready signal until it parks, so the posted function
	// can only run once it has.
	out["mts.post_wake_ns"] = med3(func() float64 {
		n := k.n(20000)
		rt := mts.New(mts.Config{Name: "wake"})
		ran := make(chan struct{})
		lat := make([]int64, 0, n)
		var t0 int64
		th := rt.Create("sleeper", mts.PrioDefault, func(t *mts.Thread) {
			for i := 0; i < n; i++ {
				ran <- struct{}{}
				t.Park("kernel wait")
				lat = append(lat, nowNs()-t0)
			}
			ran <- struct{}{}
		})
		done := make(chan struct{})
		go func() { rt.Run(); close(done) }()
		unblock := func() { rt.Unblock(th, false) }
		for i := 0; i < n; i++ {
			<-ran
			t0 = nowNs()
			rt.Post(unblock)
		}
		<-ran
		<-done
		return p50(lat)
	})

	const nap = 200 * time.Microsecond
	n := k.n(300)
	late := make([]int64, 0, n)
	rt := mts.New(mts.Config{Name: "sleep"})
	rt.Create("napper", mts.PrioDefault, func(t *mts.Thread) {
		for i := 0; i < n; i++ {
			s := nowNs()
			t.Sleep(nap)
			late = append(late, nowNs()-s-int64(nap))
		}
	})
	rt.Run()
	out["mts.sleep_late_us_p50"] = p50(late) / 1e3
}

func (k *kernels) ring(out map[string]float64) {
	out["ring.push_drain_ns"] = med3(func() float64 {
		const burst = 64
		n := k.n(1 << 20)
		q := ring.New[int]()
		start := nowNs()
		for i := 0; i < n; i += burst {
			for j := 0; j < burst; j++ {
				q.Push(j)
			}
			q.Drain()
		}
		return float64(nowNs()-start) / float64(n)
	})

	out["ring.wake_ns"] = med3(func() float64 {
		n := k.n(20000)
		q := ring.New[int64]()
		stop, ack := make(chan struct{}), make(chan struct{})
		lat := make([]int64, 0, n)
		go func() {
			for q.Sleep(stop) {
				for _, t0 := range q.Drain() {
					lat = append(lat, nowNs()-t0)
					ack <- struct{}{}
				}
			}
			close(ack)
		}()
		for i := 0; i < n; i++ {
			q.Push(nowNs())
			<-ack
		}
		close(stop)
		<-ack
		return p50(lat)
	})
}

func testMessage(size int) *wire.Message {
	return &wire.Message{From: 0, To: 1, Tag: 7, Data: make([]byte, size)}
}

// codecNs times MarshalAppend into a reused buffer and the pooled receive
// cycle a carrier runs per frame (stage into a GetBuf buffer, decode in
// place, Release), per message of the given size.
func (k *kernels) codecNs(size int) (marshal, unmarshal float64) {
	n := k.n(max(2000, 40_000_000/(size+200)))
	m := testMessage(size)
	marshal = med3(func() float64 {
		fb := wire.GetBuf(m.WireSize())
		start := nowNs()
		for i := 0; i < n; i++ {
			fb.B = m.MarshalAppend(fb.B[:0])
		}
		el := nowNs() - start
		wire.PutBuf(fb)
		return float64(el) / float64(n)
	})
	enc := m.Marshal()
	unmarshal = med3(func() float64 {
		start := nowNs()
		for i := 0; i < n; i++ {
			fb := wire.GetBuf(len(enc))
			fb.B = append(fb.B, enc...)
			got, err := wire.UnmarshalPooled(fb)
			if err != nil {
				panic(err)
			}
			got.Release()
		}
		return float64(nowNs()-start) / float64(n)
	})
	return marshal, unmarshal
}

func (k *kernels) wire(out map[string]float64) {
	for _, s := range sizeNames {
		out["wire.marshal_ns_"+s.name], out["wire.unmarshal_pooled_ns_"+s.name] = k.codecNs(s.size)
	}

	enc := testMessage(64 << 10).Marshal()
	out["wire.chunk_assemble_ns_64KB"] = med3(func() float64 {
		n := k.n(3000)
		var asm wire.Assembler
		scratch := make([]byte, 0, udpatm.MaxChunk+wire.ChunkHeaderSize)
		start := nowNs()
		for i := 0; i < n; i++ {
			ch := wire.NewChunker(enc, uint32(i), udpatm.MaxChunk)
			for {
				chunk, ok := ch.Next(scratch[:0])
				if !ok {
					break
				}
				if _, _, err := asm.Push(chunk); err != nil {
					panic(err)
				}
			}
		}
		return float64(nowNs()-start) / float64(n)
	})

	n := k.n(20000)
	m := testMessage(4 << 10)
	enc = m.Marshal()
	fb := wire.GetBuf(m.WireSize())
	before := mallocs()
	for i := 0; i < n; i++ {
		fb.B = m.MarshalAppend(fb.B[:0])
		rb := wire.GetBuf(len(enc))
		rb.B = append(rb.B, enc...)
		got, _ := wire.UnmarshalPooled(rb)
		got.Release()
	}
	out["wire.allocs_per_frame"] = float64(mallocs()-before) / float64(n)
}

// sarNs times AAL5 segmentation (AppendCells) and reassembly (DecodeCell +
// Reassembler.Push, CRC included) of one size-byte frame.
func (k *kernels) sarNs(size int) (segment, reassemble, allocs float64) {
	vc := atm.VC{VPI: 0, VCI: 64}
	payload := make([]byte, size)
	n := k.n(20_000_000 / size)
	var cells []byte
	segment = med3(func() float64 {
		start := nowNs()
		for i := 0; i < n; i++ {
			var err error
			if cells, err = atm.AppendCells(cells[:0], vc, payload); err != nil {
				panic(err)
			}
		}
		return float64(nowNs()-start) / float64(n)
	})
	push := func(r *atm.Reassembler) {
		for off := 0; off < len(cells); off += atm.CellSize {
			c, err := atm.DecodeCell(cells[off : off+atm.CellSize])
			if err != nil {
				panic(err)
			}
			if _, _, err := r.Push(c); err != nil {
				panic(err)
			}
		}
	}
	reassemble = med3(func() float64 {
		r := atm.NewReassembler(vc)
		start := nowNs()
		for i := 0; i < n; i++ {
			push(r)
		}
		return float64(nowNs()-start) / float64(n)
	})
	r := atm.NewReassembler(vc)
	before := mallocs()
	for i := 0; i < n; i++ {
		cells, _ = atm.AppendCells(cells[:0], vc, payload)
		push(r)
	}
	allocs = float64(mallocs()-before) / float64(n)
	return segment, reassemble, allocs
}

func (k *kernels) atm(out map[string]float64) {
	// AAL5 caps a frame at 65535 octets and udpatm cuts messages into 8 KB
	// frames, so the large size here is 8 KB, not 64 KB.
	for _, s := range []struct {
		name string
		size int
	}{{"4KB", 4 << 10}, {"8KB", 8 << 10}} {
		seg, reasm, allocs := k.sarNs(s.size)
		out["atm.append_cells_MBps_"+s.name] = float64(s.size) / seg * 1e3
		out["atm.reassemble_MBps_"+s.name] = float64(s.size) / reasm * 1e3
		out["atm.allocs_per_frame"] = allocs
	}
}

// rawCarrier sends size-byte messages one at a time through a bare pair of
// endpoints of the named carrier, waiting for the peer's handler each time.
func (k *kernels) rawCarrier(carrier string, size int) rawCost {
	key := rawKey{carrier, size}
	if c, ok := k.raw[key]; ok {
		return c
	}
	var c rawCost
	if carrier == "mem" {
		c = k.rawMem(size)
	} else {
		c = k.rawSocket(carrier, size)
	}
	if k.raw == nil {
		k.raw = map[rawKey]rawCost{}
	}
	k.raw[key] = c
	return c
}

// rawMem is the hop the lane engines use: Send marshals into a pooled frame
// and calls the peer's frame handler on the sender's goroutine.
func (k *kernels) rawMem(size int) rawCost {
	n := k.n(max(5000, 40_000_000/(size+400)))
	mem := transport.NewMem()
	a := mem.Attach(0, mts.New(mts.Config{Name: "a"}))
	b := mem.Attach(1, mts.New(mts.Config{Name: "b"}))
	b.SetFrameHandler(func(fb *wire.Buf) {
		m, err := wire.UnmarshalPooled(fb)
		if err != nil {
			panic(err)
		}
		m.Release()
	})
	m := testMessage(size)
	var allocs float64
	ns := med3(func() float64 {
		before := mallocs()
		start := nowNs()
		for i := 0; i < n; i++ {
			a.Send(nil, m)
		}
		el := nowNs() - start
		allocs = float64(mallocs()-before) / float64(n)
		return float64(el) / float64(n)
	})
	return rawCost{onewayNs: ns, sendNs: ns, allocs: allocs}
}

// rawSocket covers the two carriers that deliver by posting into the
// receiver's runtime, which therefore has to be running: a keeper thread
// parks in it until the kernel is over.
func (k *kernels) rawSocket(carrier string, size int) rawCost {
	n := k.n(3000)
	rtA, rtB := mts.New(mts.Config{Name: "a"}), mts.New(mts.Config{Name: "b"})
	net, err := newNetwork(carrier)
	var a, b transport.Endpoint
	if err == nil {
		if a, err = net.attach(0, rtA); err == nil {
			defer a.(io.Closer).Close()
			b, err = net.attach(1, rtB)
		}
	}
	if err != nil {
		return rawCost{onewayNs: math.NaN(), sendNs: math.NaN(), allocs: math.NaN()}
	}
	defer b.(io.Closer).Close()
	var t0 atomic.Int64 // the socket orders the two sides, but only an atomic tells the race detector
	oneway, send := make([]int64, 0, n), make([]int64, 0, n)
	ack := make(chan struct{})
	b.SetHandler(func(m *transport.Message) {
		oneway = append(oneway, nowNs()-t0.Load())
		m.Release()
		ack <- struct{}{}
	})
	keeper := rtB.Create("keeper", mts.PrioDefault, func(t *mts.Thread) { t.Park("kernel keeper") })
	done := make(chan struct{})
	go func() { rtB.Run(); close(done) }()

	m := testMessage(size)
	before := mallocs()
	for i := 0; i < n; i++ {
		t0.Store(nowNs())
		a.Send(nil, m)
		send = append(send, nowNs()-t0.Load())
		<-ack
	}
	allocs := float64(mallocs()-before) / float64(n)
	rtB.Post(func() { rtB.Unblock(keeper, false) })
	<-done
	return rawCost{onewayNs: p50(oneway), sendNs: p50(send), allocs: allocs}
}

// kernelFabric builds a Mem fabric for a core kernel; the kernels are not
// repetitions, so a failure to build is a bug.
func kernelFabric(n int, accept func(*Proc, *Chan)) *Fabric {
	f, err := NewFabric("mem", n, nil, accept)
	if err != nil {
		panic(err)
	}
	return f
}

// coreMatch times RecvTagged against an unexpected-message store preloaded
// to a given depth: depth-1 fillers sit in front of every target.
func (k *kernels) coreMatch(out map[string]float64) {
	const size, fill, target, sentinel = 256, 1, 2, 3
	match := func(depth int) float64 {
		n := k.n(2000)
		f := kernelFabric(2, nil)
		var ns float64
		f.Proc(0).Thread("tx", func(t *Thread) {
			buf := make([]byte, size)
			for i := 0; i < depth-1; i++ {
				t.SendTagged(fill, 0, 1, buf)
			}
			for i := 0; i < n; i++ {
				t.SendTagged(target, 0, 1, buf)
			}
			t.SendTagged(sentinel, 0, 1, buf)
		})
		f.Proc(1).Thread("rx", func(t *Thread) {
			// Per-pair FIFO: once the sentinel is here, so is the rest.
			t.RecvTagged(sentinel, Any, 0)
			start := nowNs()
			for i := 0; i < n; i++ {
				t.RecvTagged(target, Any, 0)
			}
			ns = float64(nowNs()-start) / float64(n)
			for i := 0; i < depth-1; i++ {
				t.RecvTagged(fill, Any, 0)
			}
		})
		if err := f.Run(); err != nil {
			return math.NaN()
		}
		return ns
	}
	out["core.match_ns_depth1"] = med3(func() float64 { return match(1) })
	out["core.match_ns_depth1024"] = med3(func() float64 { return match(1024) })
}

// coreGroup times each collective alone at N=8, on the binomial tree and on
// the linear baseline (Fanout >= N): back-to-back rounds, and the time until
// the slowest member has finished them all — a root that only sends would
// otherwise run ahead of the tree and time nothing but its own send calls.
func (k *kernels) coreGroup(out map[string]float64) {
	const n = 8
	ops := []struct {
		name string
		do   func(g *Group, t *Thread, buf, own []byte)
	}{
		{"core.barrier_us_n8", func(g *Group, t *Thread, _, _ []byte) { g.Barrier(t) }},
		{"core.bcast4K_us_n8", func(g *Group, t *Thread, buf, _ []byte) { g.BcastInto(t, 0, buf) }},
		{"core.reduce_us_n8", func(g *Group, t *Thread, _, own []byte) { g.Reduce(t, 0, own, sum64) }},
	}
	for _, shape := range []struct {
		suffix string
		fanout int
	}{{"", 0}, {"_linear", n}} {
		vals := make([][]float64, len(ops))
		for rep := 0; rep < 3; rep++ {
			rounds := k.n(500)
			f := kernelFabric(n, nil)
			us := make([]float64, len(ops))
			var mu sync.Mutex
			for i := 0; i < n; i++ {
				p := f.Proc(i)
				g := p.NewGroup(n, shape.fanout)
				p.Thread("member", func(t *Thread) {
					buf, own := make([]byte, 4<<10), make([]byte, 8)
					for o, op := range ops {
						g.Barrier(t)
						start := nowNs()
						for r := 0; r < rounds; r++ {
							op.do(g, t, buf, own)
						}
						el := float64(nowNs()-start) / 1e3 / float64(rounds)
						mu.Lock()
						us[o] = math.Max(us[o], el)
						mu.Unlock()
					}
				})
			}
			if err := f.Run(); err != nil {
				for o := range us {
					us[o] = math.NaN()
				}
			}
			for o := range ops {
				vals[o] = append(vals[o], us[o])
			}
		}
		for o, op := range ops {
			out[op.name+shape.suffix] = median(vals[o])
		}
	}
}

// coreSignal churns signaled channels: OpenCall, four 256 B messages,
// CloseCall, over and over on one proc pair.
func (k *kernels) coreSignal(out map[string]float64) {
	const msgs, size = 4, 256
	cycles := k.n(1000)
	opts := ChanOpts{Window: 4, GoBackN: 8, Timeout: 2 * time.Millisecond}
	f := kernelFabric(2, func(p *Proc, c *Chan) {
		p.Thread("serve", func(t *Thread) {
			// The first message tells the caller which thread serves it.
			buf := make([]byte, size)
			c.Send(t, c.PeerThread(), buf[:1])
			for i := 0; i < msgs; i++ {
				c.RecvInto(t, buf, Any)
			}
			c.Send(t, c.PeerThread(), buf[:1])
		})
	})
	var open, closeNs []int64
	var elapsed int64
	failed := 0
	f.Proc(1).Thread("keeper", func(t *Thread) { t.RecvInto(make([]byte, 1), Any, 0) })
	f.Proc(0).Thread("dial", func(t *Thread) {
		buf := make([]byte, size)
		start := nowNs()
		for i := 0; i < cycles; i++ {
			s := nowNs()
			c, err := f.Proc(0).OpenCall(t, 1, opts)
			if err != nil {
				failed++
				continue
			}
			open = append(open, nowNs()-s)
			_, server := c.RecvInto(t, buf, Any)
			for j := 0; j < msgs; j++ {
				c.Send(t, server, buf)
			}
			c.RecvInto(t, buf, Any)
			s = nowNs()
			if err := c.CloseCall(t); err != nil {
				failed++
			}
			closeNs = append(closeNs, nowNs()-s)
		}
		elapsed = nowNs() - start
		t.Send(0, 1, buf[:1])
	})
	if err := f.Run(); err != nil || failed > 0 {
		out["core.opencall_us_p50"], out["core.closecall_us_p50"] = math.NaN(), math.NaN()
		out["core.churn_cycles_per_s"], out["core.leaks"] = math.NaN(), math.NaN()
		return
	}
	out["core.opencall_us_p50"] = p50(open) / 1e3
	out["core.closecall_us_p50"] = p50(closeNs) / 1e3
	out["core.churn_cycles_per_s"] = float64(cycles) / (float64(elapsed) / 1e9)
	out["core.leaks"] = float64(f.Stats().Leaks)
}

// sim runs the virtual-mesh workload briefly for the discrete-event
// engine's own rates.
func (k *kernels) sim(out map[string]float64) {
	d := time.Duration(float64(400*time.Millisecond) * math.Sqrt(k.scale))
	res, _ := runRep(workloadByName("vmesh_ring"), k.seed, d, d/4, false, false)
	for name, v := range res.Extra {
		out[name] = v
	}
}

// workloadLayer derives the per-workload layer metrics from an untraced
// and a traced repetition of the same workload.
func workloadLayer(un, tr *repResult) map[string]float64 {
	s := &tr.Stats
	out := map[string]float64{
		"mts.switches_per_op":          ratio(s.Switches, tr.AllOps),
		"transport.mem_msgs_per_batch": ratio(s.MemBatchMsgs, s.MemBatchCalls),
		"udpatm.max_train_cells":       float64(s.MaxTrainCells),
		"udpatm.frames_per_train":      ratio(s.TrainFrames, s.Trains),
		"udpatm.bad_cells":             float64(s.BadCells),
		"udpatm.recv_dropped":          float64(s.RecvDropped),
		"core.send_call_us_p50":        tr.SendCallUs,
		"core.recv_wait_us_p50":        tr.RecvWaitUs,
		"core.ctrl_standalone_per_msg": ratio(s.CtrlStandalone, s.Received),
		"core.ctrl_piggy_share":        ratio(s.CtrlPiggybacked, s.CtrlPiggybacked+s.CtrlStandalone),
		"core.ctrl_coalesced_share":    ratio(s.CtrlCoalesced, s.CtrlPiggybacked),
		"core.retransmits_per_msg":     ratio(s.Retransmits, s.Received),
		"core.window_syncs":            float64(s.WindowSyncs),
		"core.lanes":                   float64(s.Lanes),
		"core.drr_rounds_per_msg":      ratio(s.DRRRounds, s.Received),
		"core.migrations":              float64(s.Migrations),
		"core.steals":                  float64(s.Steals),
		"runtime.gc_cycles":            math.Max(un.GCCycles, tr.GCCycles),
		"runtime.gc_pause_us_max":      math.Max(un.GCPauseUs, tr.GCPauseUs),
		"runtime.heap_inuse_MB":        math.Max(un.HeapInuse, tr.HeapInuse),
		"trace.overhead_share":         1 - tr.rate()/un.rate(),
	}
	return out
}

var budgetLines = []string{"app", "send_call", "codec", "sar", "carrier", "wake", "switch"}

// budget is this stack's Figure 3: one one-way message of workload w split
// into lines named after the layers. Every line is measured from outside —
// spans around calls into core, kernels on the layers below — so the lines
// need not add up; unattributed_share is what internal tracing has to
// explain. Workloads without a budget report zeros.
func (k *kernels) budget(w *workload, un, tr *repResult, layer map[string]float64) map[string]float64 {
	out := map[string]float64{"budget.carrier_send_us": 0, "budget.tx_side_us": 0, "budget.rx_side_us": 0,
		"budget.unattributed_share": 0}
	for _, l := range budgetLines {
		out["budget."+l+"_us"] = 0
	}
	if w.msgsPerOp == 0 || un.Ops == 0 {
		return out
	}
	// One-way time: half the round trip, or the stream's time per message.
	oneway := un.P50Us / w.msgsPerOp
	if w.msgsPerOp == 1 {
		oneway = 1e6 * un.WallS / float64(un.Ops)
	}
	raw := k.rawCarrier(w.carrier, w.size)
	marshal, unmarshal := k.codecNs(w.size)
	codec := (marshal + unmarshal) / 1e3
	var sar float64
	if w.carrier == "udpatm" {
		// The message crosses as AAL5 frames of at most 8 KB; SAR cost is
		// per cell, so a full frame's time scales to the message's bytes.
		chunk := min(w.size, udpatm.MaxChunk)
		seg, reasm, _ := k.sarNs(chunk)
		sar = (seg + reasm) / 1e3 * float64(w.size) / float64(chunk)
	}
	switchUs := layer["mts.switch_ns"] / 1e3
	var app float64
	for _, us := range tr.SelfUs {
		app += us
	}
	out["budget.app_us"] = app / w.msgsPerOp
	// The carrier's own Send call runs inside core's send call; its time is
	// already in codec/sar/carrier, so only core's share is kept here.
	out["budget.carrier_send_us"] = raw.sendNs / 1e3
	out["budget.send_call_us"] = math.Max(0, tr.SendCallUs-raw.sendNs/1e3)
	out["budget.codec_us"] = codec
	out["budget.sar_us"] = sar
	out["budget.carrier_us"] = math.Max(0, raw.onewayNs/1e3-codec-sar)
	// post_wake ends with the woken thread's dispatch, which the switch
	// line counts.
	out["budget.wake_us"] = math.Max(0, layer["mts.post_wake_ns"]/1e3-switchUs)
	out["budget.switch_us"] = switchUs * ratio(tr.Stats.Switches, tr.Stats.Received)
	var attributed float64
	for _, l := range budgetLines {
		attributed += out["budget."+l+"_us"]
	}
	if w.txRole != "" {
		// Which proc pays which part of the lines; the carrier's Send call
		// returning is where a message changes sides. On the one P the
		// benchmark runs on (benchProcs) sender and receiver take turns, so
		// the stream's time per message stands against the sum of the lines
		// like a round trip's one-way time, and the two sides add up to it.
		sw := tr.Stats.ProcSwitches
		tx := tr.SelfUs[w.txRole] + out["budget.send_call_us"] + raw.sendNs/1e3 +
			switchUs*ratio(sw[0], tr.Stats.Received)
		rx := tr.SelfUs[w.rxRole] + (raw.onewayNs-raw.sendNs)/1e3 + out["budget.wake_us"] +
			switchUs*ratio(sw[1], tr.Stats.Received)
		out["budget.tx_side_us"], out["budget.rx_side_us"] = tx, rx
	}
	out["budget.unattributed_share"] = 1 - attributed/oneway
	return out
}
