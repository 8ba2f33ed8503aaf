package transport

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mts"
	"repro/internal/wire"
)

// TestMemFaultArmedMidTraffic arms fault injection while two goroutines
// stream through the mesh — the shape the goroutine driver gives Mem: sends
// from several goroutines at once, each frame handed to the frame handler on
// its sender's goroutine. Until then sends take no lock; every send that
// starts after the arming call returned must see the fault, every send that
// returned before it must have arrived, and Dropped counts exactly what did
// not. An endpoint attached while the stream runs is reachable at once.
func TestMemFaultArmedMidTraffic(t *testing.T) {
	const senders, before, after = 2, 300, 200
	for _, tc := range []struct {
		name  string
		arm   func(*Mem)
		every int // the fault drops every post-arm send (1) or every second one (2)
	}{
		{"KillHost", func(n *Mem) { n.KillHost(1) }, 1},
		{"SetDropEvery2", func(n *Mem) { n.SetDropEvery(2) }, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := NewMem()
			rt := mts.New(mts.Config{Name: "fault"}) // never run: frames go to handlers
			src := n.Attach(0, rt)
			dst := n.Attach(1, rt)
			var got [senders][]int // got[s]: written on sender s's goroutine only
			dst.SetFrameHandler(func(fb *wire.Buf) {
				m, err := wire.UnmarshalPooled(fb)
				if err != nil {
					t.Error(err)
					return
				}
				got[m.FromThread] = append(got[m.FromThread], m.Tag)
				m.Release()
			})

			var armed atomic.Bool
			var sent [senders]atomic.Int64
			var firstAfter [senders]int // the first seq sender s sent knowing the fault was armed
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for seq, left := 0, -1; left != 0; seq++ {
						if left < 0 && armed.Load() {
							firstAfter[s], left = seq, after
						}
						src.Send(nil, &Message{From: 0, To: 1, FromThread: s, Tag: seq})
						sent[s].Add(1)
						if left > 0 {
							left--
						}
					}
				}(s)
			}
			waitSent := func(k int64) {
				for s := range sent {
					for sent[s].Load() < k {
						runtime.Gosched()
					}
				}
			}

			waitSent(before / 2)
			late := n.Attach(2, rt)
			reached := 0
			late.SetFrameHandler(func(fb *wire.Buf) { reached++; wire.PutBuf(fb) })
			src.Send(nil, &Message{From: 0, To: 2})
			if reached != 1 {
				t.Errorf("an endpoint attached mid-stream got %d of 1 frames", reached)
			}

			waitSent(before)
			var sentBefore [senders]int
			for s := range sent {
				sentBefore[s] = int(sent[s].Load())
			}
			tc.arm(n)
			armed.Store(true)
			wg.Wait()

			total, arrived, postArrived, window := 0, 0, 0, 0
			for s := range got {
				total += int(sent[s].Load())
				arrived += len(got[s])
				window += firstAfter[s] - sentBefore[s]
				if len(got[s]) < sentBefore[s] {
					t.Fatalf("sender %d: %d frames arrived, but %d sends returned before the arming call", s, len(got[s]), sentBefore[s])
				}
				for k, seq := range got[s] {
					if k < sentBefore[s] && seq != k {
						t.Fatalf("sender %d: position %d holds seq %d; every send that returned before the arming call must arrive, in order", s, k, seq)
					}
					if k > 0 && seq <= got[s][k-1] {
						t.Fatalf("sender %d: seq %d after %d", s, seq, got[s][k-1])
					}
					if seq >= firstAfter[s] {
						postArrived++
					}
				}
			}
			dropped := n.Dropped()
			if dropped != total-arrived {
				t.Errorf("Dropped() = %d, but %d of %d sends did not arrive", dropped, total-arrived, total)
			}
			post := senders * after
			switch tc.every {
			case 1:
				if postArrived != 0 {
					t.Errorf("%d of %d sends that began after KillHost returned arrived", postArrived, post)
				}
			case 2:
				// Every send after the flag judges under the lock, so every
				// second one drops; a send racing the arming call may take
				// either path, which shifts the count by at most its own half.
				if dropped < post/2 || dropped > (post+window+1)/2 {
					t.Errorf("Dropped() = %d after %d locked sends (+%d racing the arming call), want every second", dropped, post, window)
				}
			}
		})
	}
}

// TestMemLockedFallback: a destination the lock-free table does not hold
// falls back to the locked path. A proc never attached is reported there,
// fault injection armed or not, on either send entry point; a proc numbered
// past the table is delivered to.
func TestMemLockedFallback(t *testing.T) {
	for _, faults := range []bool{false, true} {
		n := NewMem()
		rt := mts.New(mts.Config{Name: "fallback"})
		src := n.Attach(0, rt)
		far := n.Attach(maxByID+5, rt)
		got := 0
		far.SetFrameHandler(func(fb *wire.Buf) { got++; wire.PutBuf(fb) })
		if faults {
			n.SetDropEvery(0)
		}
		src.Send(nil, &Message{From: 0, To: maxByID + 5})
		src.SendBatch(nil, []*Message{{From: 0, To: maxByID + 5}, {From: 0, To: maxByID + 5}})
		if got != 3 {
			t.Errorf("proc %d past the table (faults armed: %v) got %d of 3 frames", maxByID+5, faults, got)
		}
		m := &Message{From: 0, To: 9}
		for name, send := range map[string]func(){
			"Send":      func() { src.Send(nil, m) },
			"SendBatch": func() { src.SendBatch(nil, []*Message{m, m}) },
		} {
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(r.(string), "unknown proc 9") {
						t.Errorf("%s to an unattached proc (faults armed: %v): recovered %v", name, faults, r)
					}
				}()
				send()
			}()
			// The panic released the mesh lock: the mesh still works.
			n.Dropped()
		}
	}
}
