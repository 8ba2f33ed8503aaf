package main

// workloads.go holds the seven workloads. Each is written against ncs.go
// only, runs closed-loop, verifies what arrives, and ends by protocol: the
// lead thread stops when its window closes and tells its peers with a stop
// message, so every proc exits on its own.

import (
	"bytes"
	"encoding/binary"
	"time"
)

type workload struct {
	name string
	why  string
	run  func(r *rep)
	// msgsPerOp is how many one-way messages one op is made of, for the
	// budget's one-way time; 0 on workloads without a budget.
	msgsPerOp float64
	size      int    // message size the budget's kernels run at
	carrier   string // carrier the budget's kernels run on
	// txRole and rxRole name the thread roles on proc 0 and proc 1 of a
	// one-way workload (the stream); the budget then also says which side
	// pays which part of the lines.
	txRole, rxRole string
}

var workloads = []*workload{
	{name: "pingpong_mem", run: runPingPong, msgsPerOp: 2, size: 64, carrier: "mem",
		why: "64 B closed-loop round trips on Mem: pure per-message cost (mts, core lanes/match, wire header, Mem hop); no byte cost, no syscalls"},
	{name: "rpc_tcp", run: runRPC, msgsPerOp: 2, size: 4 << 10, carrier: "tcp",
		why: "4 KB RPCs from 2 client to 2 server threads over real TCP loopback: syscall-bound, the only workload on the classic send/recv engine with concurrent matching"},
	{name: "stream_udpatm", run: runStream, msgsPerOp: 1, size: 16 << 10, carrier: "udpatm", txRole: "sender", rxRole: "receiver",
		why: "one-way 16 KB stream over AAL5 cells in UDP with WindowFlow(8)+GoBackN(8): byte-dominated SAR, CRC, chunking and the flow/error tiers"},
	{name: "qos_mix_mem", run: runQoSMix,
		why: "priority-7 256 B ping-pong beside a saturating priority-0 windowed 32 KB bulk stream on Mem: per-class QoS, DRR, coalescing and thread fairness under load"},
	{name: "coll_mem_n8", run: runColl,
		why: "8 procs on Mem doing bcast 4 KB + reduce 8 B + barrier rounds on the binomial tree with more procs than cores: the tree collectives' wall-clock cost"},
	{name: "incast_mem", run: runIncast,
		why: "3 senders post 512 tagged 256 B messages each per round, drained in descending tag order: a deep unexpected-message store, so match-scan cost shows"},
	{name: "vmesh_ring", run: runVMeshRing,
		why: "64-proc virtual-time ring meshes back to back on one goroutine: the same lane engine under the discrete-event driver, and what a seed sweep can afford"},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Every payload starts with a header the receiver checks on every message;
// the rest is the repetition's seeded pattern, compared in full on one
// message in 64.
const (
	hdrSize  = 24
	kindData = 0
	kindStop = 1
)

func putHeader(buf []byte, seq uint64, ts int64, kind byte) {
	binary.LittleEndian.PutUint64(buf[0:], seq)
	binary.LittleEndian.PutUint64(buf[8:], uint64(ts))
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(buf)))
	buf[20] = kind
}

func hdrSeq(buf []byte) uint64  { return binary.LittleEndian.Uint64(buf[0:]) }
func hdrTime(buf []byte) int64  { return int64(binary.LittleEndian.Uint64(buf[8:])) }
func hdrKind(buf []byte) byte   { return buf[20] }
func hdrLen(buf []byte) uint32  { return binary.LittleEndian.Uint32(buf[16:]) }
func isStop(buf []byte) bool    { return len(buf) >= hdrSize && hdrKind(buf) == kindStop }
func stopMsg(seq uint64) []byte { b := make([]byte, hdrSize); putHeader(b, seq, 0, kindStop); return b }

// payload returns a size-byte message body filled with the seeded pattern.
func (r *rep) payload(size int) []byte {
	b := make([]byte, size)
	copy(b[hdrSize:], r.pattern)
	return b
}

// check verifies one received message: sequence number and length always,
// every byte on one message in 64.
func (r *rep) check(got []byte, seq uint64, size int) bool {
	if len(got) != size || hdrSeq(got) != seq || hdrLen(got) != uint32(size) {
		return false
	}
	if seq%64 == 0 {
		return bytes.Equal(got[hdrSize:], r.pattern[:size-hdrSize])
	}
	return true
}

// pingLoop is the closed-loop client both round-trip workloads use: send a
// size-byte request, wait for the echo, verify it; goodput is how many bytes
// of an op count as delivered payload. Only the lead drives the meter; a
// follower stops when the lead has closed the window.
func pingLoop(r *rep, t *Thread, c *counter, lead bool, size, goodput int, send func([]byte), recv func([]byte) int) {
	buf, rbuf := r.payload(size), make([]byte, size)
	var seq uint64
	for {
		s, stop := nowNs(), false
		if lead {
			s, stop = r.m.step(s)
		} else {
			stop = r.m.done()
		}
		if stop {
			break
		}
		t.OpBegin()
		putHeader(buf, seq, s, kindData)
		send(buf)
		n := recv(rbuf)
		ok := r.check(rbuf[:n], seq, size)
		d := nowNs() - s
		t.OpEnd(s, d)
		c.op(d, goodput, ok)
		seq++
	}
	send(stopMsg(seq))
}

// echoLoop is the matching server: receive, send back, until told to stop.
func echoLoop(t *Thread, size int, recv func([]byte) int, send func([]byte)) {
	buf := make([]byte, size)
	for {
		s := nowNs()
		t.OpBegin()
		n := recv(buf)
		if isStop(buf[:n]) {
			return
		}
		send(buf[:n])
		t.OpEnd(s, nowNs()-s)
	}
}

func runPingPong(r *rep) {
	const size = 64
	f := r.fabric("mem", 2, nil)
	if f == nil {
		return
	}
	c := r.m.counter(true)
	r.thread(f.Proc(0), "client", func(t *Thread) {
		pingLoop(r, t, c, true, size, 2*size,
			func(b []byte) { t.Send(0, 1, b) },
			func(b []byte) int { n, _ := t.RecvInto(b, Any, 1); return n })
	})
	r.thread(f.Proc(1), "server", func(t *Thread) {
		echoLoop(t, size,
			func(b []byte) int { n, _ := t.RecvInto(b, Any, 0); return n },
			func(b []byte) { t.Send(0, 0, b) })
	})
	r.run(f)
}

func runRPC(r *rep) {
	const size, pairs = 4 << 10, 2
	f := r.fabric("tcp", 2, nil)
	if f == nil {
		return
	}
	for i := 0; i < pairs; i++ {
		i, c := i, r.m.counter(true)
		r.thread(f.Proc(0), "client", func(t *Thread) {
			pingLoop(r, t, c, i == 0, size, 2*size,
				func(b []byte) { t.Send(i, 1, b) },
				func(b []byte) int { n, _ := t.RecvInto(b, i, 1); return n })
		})
		r.thread(f.Proc(1), "server", func(t *Thread) {
			echoLoop(t, size,
				func(b []byte) int { n, _ := t.RecvInto(b, i, 0); return n },
				func(b []byte) { t.Send(i, 0, b) })
		})
	}
	r.run(f)
}

// streamSender pushes size-byte messages down ch until the window has
// closed, then a stop message, then waits for the receiver's goodbye on the
// default channel so its proc stays up until everything is acknowledged.
//
// burst > 0 makes it wait for the receiver's acknowledgement on ch after
// every burst messages. mts threads are cooperative and a send the flow
// window admits completes inline, so a sender that a fast receiver never
// lets fill the window would otherwise never park, and a sibling thread of
// its proc would not run for as long as that lasted (seen: 50-280 ms).
func streamSender(r *rep, t *Thread, ch *Chan, toThread, size, burst int) {
	buf, ack := r.payload(size), make([]byte, hdrSize)
	var seq uint64
	for !r.m.done() {
		s := nowNs()
		t.OpBegin()
		putHeader(buf, seq, s, kindData)
		ch.Send(t, toThread, buf)
		seq++
		if burst > 0 && seq%uint64(burst) == 0 {
			ch.RecvInto(t, ack, Any)
		}
		t.OpEnd(s, nowNs()-s)
	}
	ch.Send(t, toThread, stopMsg(seq))
	t.RecvInto(ack, Any, Any)
}

// streamReceiver drains ch, checking exactly-once in-order delivery, until
// the stop message; record sees every data message with its one-way
// latency and the time it arrived. It acknowledges every burst messages
// (burst > 0) and finally releases the sender.
func streamReceiver(r *rep, t *Thread, ch *Chan, size, burst int, sender, senderThread int, record func(now, lat int64, n int, ok bool)) {
	buf, ack := make([]byte, size), make([]byte, hdrSize)
	var want uint64
	for {
		s := nowNs()
		t.OpBegin()
		n, _ := ch.RecvInto(t, buf, Any)
		if isStop(buf[:n]) {
			break
		}
		now := nowNs()
		record(now, now-hdrTime(buf), n, r.check(buf[:n], want, size))
		want++
		if burst > 0 && want%uint64(burst) == 0 {
			putHeader(ack, want, now, kindData)
			ch.Send(t, senderThread, ack)
		}
		t.OpEnd(s, nowNs()-s)
	}
	t.Send(senderThread, sender, stopMsg(want))
}

func runStream(r *rep) {
	const size = 16 << 10
	f := r.fabric("udpatm", 2, nil)
	if f == nil {
		return
	}
	tx, rx := f.OpenBoth(0, 1, ChanOpts{ID: 1, Window: 8, GoBackN: 8, Timeout: 20 * time.Millisecond})
	c := r.m.counter(true)
	r.thread(f.Proc(0), "sender", func(t *Thread) { streamSender(r, t, tx, 0, size, 0) })
	r.thread(f.Proc(1), "receiver", func(t *Thread) {
		streamReceiver(r, t, rx, size, 0, 0, 0, func(now, lat int64, n int, ok bool) {
			// The receiver leads: the op is a delivered message.
			r.m.step(now)
			c.op(lat, n, ok)
		})
	})
	r.run(f)
}

func runQoSMix(r *rep) {
	const pingSize, bulkSize, window = 256, 32 << 10, 8
	f := r.fabric("mem", 2, nil)
	if f == nil {
		return
	}
	prio0, prio1 := f.OpenBoth(0, 1, ChanOpts{ID: 1, Priority: 7})
	bulk0, bulk1 := f.OpenBoth(0, 1, ChanOpts{ID: 2, Window: window})
	ping, bulk := r.m.counter(true), r.m.counter(false)
	r.thread(f.Proc(0), "client", func(t *Thread) {
		// Goodput is the bulk class alone: the prio class's echoed bytes are
		// not what the mix is loaded with.
		pingLoop(r, t, ping, true, pingSize, 0,
			func(b []byte) { prio0.Send(t, 0, b) },
			func(b []byte) int { n, _ := prio0.RecvInto(t, b, Any); return n })
	})
	r.thread(f.Proc(0), "sender", func(t *Thread) { streamSender(r, t, bulk0, 1, bulkSize, window) })
	r.thread(f.Proc(1), "server", func(t *Thread) {
		echoLoop(t, pingSize,
			func(b []byte) int { n, _ := prio1.RecvInto(t, b, Any); return n },
			func(b []byte) { prio1.Send(t, 0, b) })
	})
	r.thread(f.Proc(1), "receiver", func(t *Thread) {
		streamReceiver(r, t, bulk1, bulkSize, window, 0, 1, func(_, _ int64, n int, ok bool) { bulk.data(n, ok) })
	})
	r.run(f)
}

func sum64(acc, next []byte) []byte {
	binary.LittleEndian.PutUint64(acc, binary.LittleEndian.Uint64(acc)+binary.LittleEndian.Uint64(next))
	return acc
}

func runColl(r *rep) {
	const n, size = 8, 4 << 10
	f := r.fabric("mem", n, nil)
	if f == nil {
		return
	}
	for i := 0; i < n; i++ {
		i, p := i, f.Proc(i)
		g, c := p.NewGroup(n, 0), r.m.counter(i == 0)
		r.thread(p, "member", func(t *Thread) {
			buf, own := r.payload(size), make([]byte, 8)
			for seq := uint64(0); ; seq++ {
				s, stop := nowNs(), false
				if i == 0 {
					s, stop = r.m.step(s)
					kind := byte(kindData)
					if stop {
						kind = kindStop
					}
					putHeader(buf, seq, s, kind)
				}
				t.OpBegin()
				g.BcastInto(t, 0, buf)
				binary.LittleEndian.PutUint64(own, seq+uint64(i))
				red := g.Reduce(t, 0, own, sum64)
				g.Barrier(t)
				d := nowNs() - s
				t.OpEnd(s, d)
				if i == 0 {
					// Σ_i (seq+i) over the 8 members.
					ok := len(red) == 8 && binary.LittleEndian.Uint64(red) == n*seq+n*(n-1)/2
					c.op(d, (n-1)*(size+8), ok)
				} else {
					c.data(0, r.check(buf, seq, size))
				}
				if hdrKind(buf) == kindStop {
					return
				}
			}
		})
	}
	r.run(f)
}

func runIncast(r *rep) {
	const senders, perRound, size = 3, 512, 256
	f := r.fabric("mem", senders+1, nil)
	if f == nil {
		return
	}
	c := r.m.counter(true)
	for s := 1; s <= senders; s++ {
		s := s
		r.thread(f.Proc(s), "sender", func(t *Thread) {
			buf, ack := r.payload(size), make([]byte, hdrSize)
			for round := uint64(0); ; round++ {
				s0 := nowNs()
				t.OpBegin()
				for tag := 0; tag < perRound; tag++ {
					putHeader(buf, round*perRound+uint64(tag), nowNs(), kindData)
					t.SendTagged(tag, 0, 0, buf)
				}
				t.RecvInto(ack, Any, 0)
				t.OpEnd(s0, nowNs()-s0)
				if isStop(ack) {
					return
				}
			}
		})
	}
	r.thread(f.Proc(0), "receiver", func(t *Thread) {
		stop := false
		for round := uint64(0); !stop; round++ {
			start := nowNs()
			for tag := perRound - 1; tag >= 0; tag-- {
				for s := 1; s <= senders; s++ {
					s0 := nowNs()
					if !stop {
						s0, stop = r.m.step(s0)
					}
					t.OpBegin()
					got := t.RecvTagged(tag, Any, s)
					c.op(-1, len(got), r.check(got, round*perRound+uint64(tag), size))
					t.OpEnd(s0, nowNs()-s0)
				}
			}
			// How long a message waited depends on where in the round its tag
			// falls, which says nothing about the program; the latency of the
			// op is the round's drain time shared out over its messages.
			c.sample((nowNs() - start) / (perRound * senders))
			// Release the senders into the next round, or out.
			rel := make([]byte, hdrSize)
			if stop {
				putHeader(rel, round, 0, kindStop)
			}
			for s := 1; s <= senders; s++ {
				t.Send(0, s, rel)
			}
		}
	})
	r.run(f)
}

func runVMeshRing(r *rep) {
	const n, msgs, minSize, sizeSpan = 64, 64, 64, 4096
	c := r.m.counter(true)
	var hash string
	var events, meshes int64
	var buildNs, simNs int64
	for first := true; ; first = false {
		s, stop := nowNs(), false
		if !first {
			if s, stop = r.m.step(s); stop {
				break
			}
		}
		vm := NewVMesh(n, r.seed, r.rec)
		sizes := make([][]int, n)
		for i := range sizes {
			rng := vm.Rand(i)
			sizes[i] = make([]int, msgs)
			for k := range sizes[i] {
				sizes[i][k] = minSize + rng.Intn(sizeSpan)
			}
		}
		bad := make([]int, n)
		for i := 0; i < n; i++ {
			i, next, prev := i, (i+1)%n, (i+n-1)%n
			r.thread(vm.Proc(i), "ring", func(t *Thread) {
				buf, rbuf := r.payload(minSize+sizeSpan), make([]byte, minSize+sizeSpan)
				for k, sz := range sizes[i] {
					putHeader(buf[:sz], uint64(k), 0, kindData)
					t.Send(0, next, buf[:sz])
				}
				for k, sz := range sizes[prev] {
					if n, _ := t.RecvInto(rbuf, Any, prev); !r.check(rbuf[:n], uint64(k), sz) {
						bad[i]++
					}
				}
			})
		}
		built := nowNs()
		if first {
			r.setupDone()
			if r.dry {
				vm.Run()
				return
			}
		}
		if err := vm.Run(); err != nil {
			r.res.Err = err.Error()
			return
		}
		end := nowNs()
		nbad := 0
		for _, b := range bad {
			nbad += b
		}
		// Same seed, same mesh: every run of a repetition must reproduce
		// one timeline, or the whole mesh counts as failed.
		if h := vm.Hash(); hash == "" {
			hash = h
		} else if h != hash {
			nbad = n * msgs
		}
		c.all += n * msgs
		c.allOps += n * msgs
		c.bad += int64(nbad)
		var bytes int64
		for _, row := range sizes {
			for _, sz := range row {
				bytes += int64(sz)
			}
		}
		c.count(n*msgs, bytes)
		// The op is one simulated message; its latency is the mesh's wall
		// time shared out over its messages.
		c.sample((end - s) / (n * msgs))
		meshes++
		events += vm.Events()
		buildNs += built - s
		simNs += end - built
		r.res.Stats = vm.Stats()
	}
	r.res.Extra["sim.events_per_s"] = float64(events) / (float64(simNs) / 1e9)
	r.res.Extra["sim.events_per_msg"] = float64(events) / float64(meshes*n*msgs)
	r.res.Extra["sim.mesh_build_ms"] = float64(buildNs) / float64(meshes) / 1e6
}
