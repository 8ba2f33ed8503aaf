package core

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/mts"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestQuickChaosTraffic drives random all-to-all traffic through simulated
// clusters and checks conservation (every message sent is received exactly
// once), addressing (only by the addressed thread), and per-sender-pair
// FIFO order — for arbitrary seeds, process counts, and thread counts.
func TestQuickChaosTraffic(t *testing.T) {
	f := func(seed int64, pRaw, tRaw, mRaw uint8) bool {
		nProcs := int(pRaw%3) + 2   // 2..4 processes
		nThreads := int(tRaw%2) + 1 // 1..2 threads each
		msgs := int(mRaw%8) + 4     // 4..11 messages per thread
		rng := rand.New(rand.NewSource(seed))

		// Plan the traffic up front so receivers know what to expect.
		type slot struct{ proc, thread int }
		plan := make(map[slot][]slot) // sender -> ordered destinations
		expect := make(map[slot]int)  // receiver -> inbound count
		for p := 0; p < nProcs; p++ {
			for th := 0; th < nThreads; th++ {
				src := slot{p, th}
				for m := 0; m < msgs; m++ {
					dp := rng.Intn(nProcs)
					if dp == p {
						dp = (dp + 1) % nProcs
					}
					dst := slot{dp, rng.Intn(nThreads)}
					plan[src] = append(plan[src], dst)
					expect[dst]++
				}
			}
		}

		eng, procs := simCluster(t, nProcs, nil)
		type recvRec struct {
			from Addr
			seq  byte
		}
		received := make(map[slot][]recvRec)
		for p := 0; p < nProcs; p++ {
			for th := 0; th < nThreads; th++ {
				self := slot{p, th}
				procs[p].TCreate(fmt.Sprintf("w%d.%d", p, th), mts.PrioDefault, func(tt *Thread) {
					// Interleave sends and receives; finish both quotas.
					dests := plan[self]
					want := expect[self]
					sent := 0
					got := 0
					for sent < len(dests) || got < want {
						if sent < len(dests) {
							d := dests[sent]
							tt.Send(d.thread, ProcID(d.proc), []byte{byte(sent)})
							sent++
						}
						if got < want {
							if data, from, ok := tt.TryRecv(Any, Any); ok {
								received[self] = append(received[self], recvRec{from, data[0]})
								got++
								continue
							}
							if sent == len(dests) {
								data, from := tt.Recv(Any, Any)
								received[self] = append(received[self], recvRec{from, data[0]})
								got++
							}
						}
					}
				})
			}
		}
		eng.SetMaxTime(time.Hour)
		eng.Run()

		// Conservation + per-pair FIFO.
		total := 0
		for self, recs := range received {
			total += len(recs)
			lastSeq := map[Addr]int{}
			for _, r := range recs {
				if prev, ok := lastSeq[r.from]; ok && int(r.seq) <= prev {
					t.Logf("FIFO broken at %v from %v: %d after %d", self, r.from, r.seq, prev)
					return false
				}
				lastSeq[r.from] = int(r.seq)
			}
			if len(recs) != expect[self] {
				return false
			}
		}
		return total == nProcs*nThreads*msgs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestChannelIsolationUnderLoss asserts the tentpole property of the
// channel layer: two channels with different error control share one lossy
// Mem transport, fault injection is aimed at the bulk channel only (data
// and acks alike), and the drops must never stall or reorder the video
// channel — its frames arrive complete and strictly in order while
// go-back-N is busy recovering the bulk stream.
func TestChannelIsolationUnderLoss(t *testing.T) {
	for _, seed := range []int64{1, 42, 1995} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const (
				videoID ChannelID = 1
				bulkID  ChannelID = 2
				frames            = 25
				bulkN             = 20
			)
			mem := transport.NewMem()
			mem.SetDropRate(0.3, seed)
			mem.SetDropClass(func(m *transport.Message) bool { return m.Channel == bulkID })
			procs := realCluster(t, 2, mem, nil)
			procs[0].OnException(func(error) {}) // trailing-ack give-up after peer exit

			video0 := procs[0].Open(1, ChannelConfig{ID: videoID, Priority: 7})
			bulk0 := procs[0].Open(1, ChannelConfig{ID: bulkID, Error: NewGoBackN(4, 15*time.Millisecond)})
			video1 := procs[1].Open(0, ChannelConfig{ID: videoID, Priority: 7})
			bulk1 := procs[1].Open(0, ChannelConfig{ID: bulkID, Error: NewGoBackN(4, 15*time.Millisecond)})

			procs[0].TCreate("video", mts.PrioDefault, func(th *Thread) {
				for k := 0; k < frames; k++ {
					video0.Send(th, 0, []byte{byte(k)})
				}
			})
			procs[0].TCreate("bulk", mts.PrioDefault, func(th *Thread) {
				for k := 0; k < bulkN; k++ {
					bulk0.Send(th, 1, []byte{byte(k)})
				}
			})
			var gotVideo, gotBulk []int
			procs[1].TCreate("viewer", mts.PrioDefault, func(th *Thread) {
				for k := 0; k < frames; k++ {
					data, _ := video1.Recv(th, Any)
					gotVideo = append(gotVideo, int(data[0]))
				}
			})
			procs[1].TCreate("sink", mts.PrioDefault, func(th *Thread) {
				for k := 0; k < bulkN; k++ {
					data, _ := bulk1.Recv(th, Any)
					gotBulk = append(gotBulk, int(data[0]))
				}
			})
			runReal(procs)

			if mem.Dropped() == 0 {
				t.Fatal("fault injection never dropped anything — test proves nothing")
			}
			// Video: no error control, yet complete and in order, because
			// only bulk traffic was lossy and the channels are isolated.
			if len(gotVideo) != frames {
				t.Fatalf("video delivered %d of %d frames", len(gotVideo), frames)
			}
			for i, v := range gotVideo {
				if v != i {
					t.Fatalf("video reordered at %d: %v", i, gotVideo)
				}
			}
			// Bulk: go-back-N recovered every message in order.
			if len(gotBulk) != bulkN {
				t.Fatalf("bulk delivered %d of %d", len(gotBulk), bulkN)
			}
			for i, v := range gotBulk {
				if v != i {
					t.Fatalf("bulk reordered at %d: %v", i, gotBulk)
				}
			}
			if bulk0.Error().(*GoBackN).Retransmissions() == 0 {
				t.Fatal("bulk channel never retransmitted — loss did not exercise recovery")
			}
		})
	}
}

// syncedWindow builds a WindowFlow with a sync period short enough that a
// lost trailing credit heals within test timescales.
func syncedWindow(window int) *WindowFlow {
	w := NewWindowFlow(window)
	w.SyncInterval = 5 * time.Millisecond
	return w
}

// TestWindowRecoveryUnderCreditLoss is the credit-protocol chaos test: the
// fabric eats flow-control frames (and, in the second variant, every kind
// of frame), and the windowed channel must keep its full window — under
// the old per-delivery credit pulses each lost tagFlowAck permanently
// shrank the window until the sender deadlocked. Cumulative advertisements
// plus the periodic window-sync timer make the window self-healing.
func TestWindowRecoveryUnderCreditLoss(t *testing.T) {
	// Variant 1: only control frames are lossy (50%!), data rides clean —
	// window flow alone, no error-control tier to lean on. The run
	// completing at all proves recovery: with window 4 and ~30 dropped
	// credits, a non-idempotent credit scheme deadlocks almost instantly.
	t.Run("credit-only-loss", func(t *testing.T) {
		const window, n = 4, 60
		mem := transport.NewMem()
		mem.SetDropRate(0.5, 1995)
		mem.SetDropClass(func(m *transport.Message) bool { return m.Tag < 0 })
		procs := realCluster(t, 2, mem, nil)
		ch0 := procs[0].Open(1, ChannelConfig{ID: 1, Flow: syncedWindow(window)})
		ch1 := procs[1].Open(0, ChannelConfig{ID: 1, Flow: syncedWindow(window)})
		flow0 := ch0.Flow().(*WindowFlow)

		windowHealed := false
		procs[0].TCreate("sender", mts.PrioDefault, func(th *Thread) {
			for k := 0; k < n; k++ {
				ch0.Send(th, 0, []byte{byte(k)})
				if out := flow0.Outstanding(); out > window {
					t.Errorf("window violated: %d outstanding", out)
				}
			}
			th.Recv(Any, 1) // receiver's done marker (default channel, lossless)
			// The advert for the last delivery may well have been dropped;
			// the receiver's periodic sync must re-open the window fully.
			deadline := time.Now().Add(5 * time.Second)
			for flow0.Outstanding() != 0 && time.Now().Before(deadline) {
				th.Yield()
			}
			windowHealed = flow0.Outstanding() == 0
			th.Send(0, 1, nil) // release the receiver
		})
		var got int
		procs[1].TCreate("recv", mts.PrioDefault, func(th *Thread) {
			for k := 0; k < n; k++ {
				ch1.Recv(th, Any)
				got++
			}
			th.Send(0, 0, []byte("done"))
			th.Recv(Any, 0) // stay alive: the sync timer must keep advertising
		})
		runReal(procs)

		if got != n {
			t.Fatalf("delivered %d of %d", got, n)
		}
		if mem.Dropped() == 0 {
			t.Fatal("fault injection never dropped anything — test proves nothing")
		}
		if !windowHealed {
			t.Fatalf("window never fully re-opened: %d still outstanding", flow0.Outstanding())
		}
	})

	// Variant 2: the acceptance scenario — 20% of *all* frames die, data
	// and control alike, with go-back-N recovering the data tier and the
	// cumulative-credit protocol recovering the flow tier. Nothing is
	// special-cased or protected.
	t.Run("all-frames-20pct", func(t *testing.T) {
		const window, n = 4, 60
		mem := transport.NewMem()
		mem.SetDropRate(0.20, 42)
		procs := realCluster(t, 2, mem, nil)
		for _, p := range procs {
			p.OnException(func(error) {}) // trailing-ack give-up after peer exit
		}
		gbn := func() ErrorControl { return NewGoBackN(8, 10*time.Millisecond) }
		ch0 := procs[0].Open(1, ChannelConfig{ID: 2, Flow: syncedWindow(window), Error: gbn()})
		ch1 := procs[1].Open(0, ChannelConfig{ID: 2, Flow: syncedWindow(window), Error: gbn()})
		flow0 := ch0.Flow().(*WindowFlow)

		procs[0].TCreate("sender", mts.PrioDefault, func(th *Thread) {
			for k := 0; k < n; k++ {
				ch0.Send(th, 0, []byte{byte(k)})
				if out := flow0.Outstanding(); out > window {
					t.Errorf("window violated: %d outstanding", out)
				}
			}
		})
		var got []int
		procs[1].TCreate("recv", mts.PrioDefault, func(th *Thread) {
			for k := 0; k < n; k++ {
				data, _ := ch1.Recv(th, Any)
				got = append(got, int(data[0]))
			}
		})
		runReal(procs)

		if len(got) != n {
			t.Fatalf("delivered %d of %d", len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("reordered at %d: %v", i, got)
			}
		}
		if mem.Dropped() == 0 {
			t.Fatal("fault injection never dropped anything — test proves nothing")
		}
	})
}

// TestWindowSyncHealsLostFinalCredit pins the window-sync timer
// specifically: every per-delivery credit advertisement is destroyed while
// the sender runs its window dry, then the credit path is restored with
// *no further deliveries happening* — only the periodic re-advertisement
// of the cumulative count can re-open the window.
func TestWindowSyncHealsLostFinalCredit(t *testing.T) {
	const window, n = 2, 6
	var blockCredits atomic.Bool
	blockCredits.Store(true)
	mem := transport.NewMem()
	mem.SetDropRate(1.0, 1)
	mem.SetDropClass(func(m *transport.Message) bool { return m.Tag < 0 && blockCredits.Load() })
	procs := realCluster(t, 2, mem, nil)
	ch0 := procs[0].Open(1, ChannelConfig{ID: 1, Flow: syncedWindow(window)})
	ch1 := procs[1].Open(0, ChannelConfig{ID: 1, Flow: syncedWindow(window)})
	recvFlow := ch1.Flow().(*WindowFlow)

	procs[0].TCreate("sender", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < n; k++ {
			ch0.Send(th, 0, []byte{byte(k)}) // stalls at k==window until a sync lands
		}
	})
	var got int
	procs[1].TCreate("recv", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < n; k++ {
			ch1.Recv(th, Any)
			got++
			if got == window {
				// The sender is now stalled and every credit so far is
				// gone. Re-opening the credit path lets only the *timer*
				// heal it: no new delivery will generate an advert.
				blockCredits.Store(false)
			}
		}
	})
	runReal(procs)

	if got != n {
		t.Fatalf("delivered %d of %d", got, n)
	}
	if recvFlow.Syncs() == 0 {
		t.Fatal("window re-opened without a periodic sync — the stall never happened or credits leaked")
	}
}

// TestPiggybackChaosBidirectional is the piggyback loss test: both ends of
// one windowed go-back-N channel stream data at each other over a fabric
// eating 20% of *all* frames, so piggybacked credits and acks routinely
// die with the data frame carrying them. Recovery must not depend on the
// ride: a lost piggybacked credit is superseded by a later advertisement
// (or the window-sync timer), a lost piggybacked ack by retransmission and
// re-ack. The run proves credit monotonicity and go-back-N recovery hold
// with the piggyback path fully engaged.
func TestPiggybackChaosBidirectional(t *testing.T) {
	for _, seed := range []int64{7, 42, 1995} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const window, n = 4, 50
			mem := transport.NewMem()
			mem.SetDropRate(0.20, seed)
			procs := realCluster(t, 2, mem, nil)
			for _, p := range procs {
				p.OnException(func(error) {}) // trailing-ack give-up after peer exit
			}
			gbn := func() ErrorControl { return NewGoBackN(8, 10*time.Millisecond) }
			ch0 := procs[0].Open(1, ChannelConfig{ID: 3, Flow: syncedWindow(window), Error: gbn()})
			ch1 := procs[1].Open(0, ChannelConfig{ID: 3, Flow: syncedWindow(window), Error: gbn()})
			flows := []*WindowFlow{ch0.Flow().(*WindowFlow), ch1.Flow().(*WindowFlow)}

			got := make([][]int, 2)
			for i, cc := range []*Channel{ch0, ch1} {
				i, cc, flow := i, cc, flows[i]
				procs[i].TCreate("dual", mts.PrioDefault, func(th *Thread) {
					buf := make([]byte, 1)
					sent, rcvd := 0, 0
					for sent < n || rcvd < n {
						if sent < n {
							cc.Send(th, 0, []byte{byte(sent)})
							sent++
							if out := flow.Outstanding(); out < 0 || out > window {
								t.Errorf("end %d: window violated: %d outstanding", i, out)
							}
						}
						if rcvd < n {
							cc.RecvInto(th, buf, Any)
							got[i] = append(got[i], int(buf[0]))
							rcvd++
						}
					}
				})
			}
			runReal(procs)

			if mem.Dropped() == 0 {
				t.Fatal("fault injection never dropped anything — test proves nothing")
			}
			piggy := int64(0)
			for i, cc := range []*Channel{ch0, ch1} {
				s := cc.Stats()
				piggy += s.CtrlPiggybacked
				if len(got[i]) != n {
					t.Fatalf("end %d delivered %d of %d", i, len(got[i]), n)
				}
				for k, v := range got[i] {
					if v != k {
						t.Fatalf("end %d reordered at %d: %v", i, k, got[i])
					}
				}
				if cc.Error().(*GoBackN).Retransmissions() == 0 {
					t.Fatalf("end %d never retransmitted — loss did not exercise recovery", i)
				}
				// Credit monotonicity survived whatever the fabric ate.
				if out := flows[i].Outstanding(); out < 0 || out > window {
					t.Fatalf("end %d: %d outstanding at exit", i, out)
				}
			}
			if piggy == 0 {
				t.Fatal("no control ever piggybacked — bidirectional traffic should ride constantly")
			}
		})
	}
}

// TestRetransmitSurvivesSenderBufferReuse pins the error-control copy
// semantics: Send lets the caller reuse its buffer the moment the first
// transmission is serialized (the idiom every RecvInto/BcastInto loop
// relies on), so a retransmission must carry the bytes as they were at
// admission — not whatever the buffer holds by the time the timer fires.
// The first data frame is destroyed, the sender immediately overwrites
// its buffer with the second payload, and go-back-N's retransmission must
// still deliver the original first payload.
func TestRetransmitSurvivesSenderBufferReuse(t *testing.T) {
	var droppedOne atomic.Bool
	mem := transport.NewMem()
	mem.SetDropRate(1.0, 1)
	mem.SetDropClass(func(m *transport.Message) bool {
		// Exactly the first data frame dies.
		return m.Tag >= 0 && droppedOne.CompareAndSwap(false, true)
	})
	procs := realCluster(t, 2, mem, nil)
	gbn := func() ErrorControl { return NewGoBackN(4, 10*time.Millisecond) }
	ch0 := procs[0].Open(1, ChannelConfig{ID: 1, Error: gbn()})
	ch1 := procs[1].Open(0, ChannelConfig{ID: 1, Error: gbn()})

	procs[0].TCreate("sender", mts.PrioDefault, func(th *Thread) {
		buf := []byte{1}
		ch0.Send(th, 0, buf)
		buf[0] = 2 // legal: the transfer was serialized before Send returned
		ch0.Send(th, 0, buf)
	})
	var got []byte
	procs[1].TCreate("recv", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < 2; k++ {
			data, _ := ch1.Recv(th, Any)
			got = append(got, data[0])
		}
	})
	runReal(procs)

	if !droppedOne.Load() || mem.Dropped() == 0 {
		t.Fatal("fault injection never dropped the first frame — test proves nothing")
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("delivered %v, want [1 2] — retransmission leaked the reused buffer", got)
	}
}

// TestCreditsNeverMoveBackwards is the cumulative-credit property test:
// for arbitrary interleavings of duplicated, reordered, and stale
// advertisements (including counter wrap-around), the sender's credited
// count is monotone in serial-number order, the window invariant holds,
// and the newest advertisement always heals the window completely.
func TestCreditsNeverMoveBackwards(t *testing.T) {
	f := func(seed int64, windowRaw uint8, start uint32, opsRaw uint8) bool {
		window := int(windowRaw%8) + 1
		rng := rand.New(rand.NewSource(seed))
		w := NewWindowFlow(window)
		w.sent, w.credited = start, start
		delivered := start
		var adverts []uint32
		ops := int(opsRaw) + 20
		for i := 0; i < ops; i++ {
			if w.outstanding() < window && rng.Intn(2) == 0 {
				w.sent++    // sender admits a message
				delivered++ // ...and the peer eventually delivers it
				adverts = append(adverts, delivered)
			}
			if len(adverts) > 0 {
				// Replay a random advert: possibly stale, possibly a dup.
				prev := w.credited
				adv := adverts[rng.Intn(len(adverts))]
				w.onControl(&transport.Message{Data: wire.AppendUint32(nil, adv)})
				if wire.SeqNewer(prev, w.credited) {
					return false // credits moved backwards
				}
				if out := w.outstanding(); out < 0 || out > window {
					return false // window invariant broken
				}
			}
		}
		// The newest advertisement supersedes every lost or stale one.
		w.onControl(&transport.Message{Data: wire.AppendUint32(nil, delivered)})
		return w.credited == delivered && w.outstanding() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCreditAboveSentIsStale: an advertisement that credits more messages
// than were ever sent is ignored and counted stale, wherever the counters
// sit in serial-number space. Adopted, it would wrap outstanding(): on a
// 64-bit int the window would never admit again, and every honest credit
// after it would look stale; on a 32-bit int outstanding() would go negative
// and the window would stop binding.
func TestCreditAboveSentIsStale(t *testing.T) {
	const window = 4
	for _, start := range []uint32{0, 1<<31 - 2, ^uint32(0) - 2} {
		w := NewWindowFlow(window)
		w.sent, w.credited = start+3, start
		w.onCredit(start + 100) // 97 more than were ever sent
		if w.credited != start || w.stale != 1 || w.outstanding() != 3 {
			t.Fatalf("start %d: credited %d, stale %d, outstanding %d after a credit above sent; want %d, 1, 3",
				start, w.credited, w.stale, w.outstanding(), start)
		}
		w.onCredit(start + 2) // honest
		if w.credited != start+2 || w.outstanding() != 1 {
			t.Fatalf("start %d: honest credit not adopted: credited %d, outstanding %d", start, w.credited, w.outstanding())
		}
		admitted := 0
		for w.admit(nil) {
			admitted++
			if admitted > window {
				t.Fatalf("start %d: window stopped binding", start)
			}
		}
		if admitted != window-1 {
			t.Fatalf("start %d: admitted %d into a window with %d free", start, admitted, window-1)
		}
	}
}
