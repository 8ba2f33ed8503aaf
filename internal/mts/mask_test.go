package mts

import (
	"math/bits"
	"math/rand"
	"testing"
	"time"
)

// TestReadyMaskMatchesRings drives a step-mode runtime through random
// Create, Yield, Park, Unblock (front and back), Dispatch, DispatchThread
// and Kill steps. After every step readyMask must be exactly the set of
// non-empty ready rings, and the thread its lowest bit names must be the one
// a scan of the rings from priority 0 finds first; every Dispatch must run
// that thread.
func TestReadyMaskMatchesRings(t *testing.T) {
	const (
		actYield = iota
		actPark
		actExit
	)
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rt := New(Config{Name: "mask", IdleTimeout: 5 * time.Second})
		var act []int
		var ran *Thread
		body := func(th *Thread) {
			for {
				ran = th
				switch act[th.ID()] {
				case actYield:
					th.Yield()
				case actPark:
					th.Park("mask")
				default:
					return
				}
			}
		}
		create := func() {
			act = append(act, actYield)
			rt.Create("t", rng.Intn(NumPriorities), body)
		}
		pick := func(s State) *Thread {
			var c []*Thread
			for _, th := range rt.threads {
				if th.state == s {
					c = append(c, th)
				}
			}
			if len(c) == 0 {
				return nil
			}
			return c[rng.Intn(len(c))]
		}
		// scan is the reference pick: the head of the first non-empty ring.
		scan := func() *Thread {
			for i := range rt.ready {
				if n := rt.ready[i].Front(); n != nil {
					return n.Value.(*Thread)
				}
			}
			return nil
		}
		check := func(step int, op string) {
			var want uint16
			for i := range rt.ready {
				if !rt.ready[i].Empty() {
					want |= 1 << i
				}
			}
			if rt.readyMask != want {
				t.Fatalf("seed %d step %d (%s): readyMask %016b, rings %016b", seed, step, op, rt.readyMask, want)
			}
			var got *Thread
			if rt.readyMask != 0 {
				got = rt.ready[bits.TrailingZeros16(rt.readyMask)].Front().Value.(*Thread)
			}
			if ref := scan(); got != ref {
				t.Fatalf("seed %d step %d (%s): mask picks %v, scan %v", seed, step, op, got, ref)
			}
			if rt.HasRunnable() != (want != 0) {
				t.Fatalf("seed %d step %d (%s): HasRunnable %v with rings %016b", seed, step, op, rt.HasRunnable(), want)
			}
		}
		for i := 0; i < 1+rng.Intn(4); i++ {
			create()
		}
		check(0, "create")
		for step := 1; step <= 60; step++ {
			op := "none"
			switch r := rng.Intn(10); {
			case r < 2:
				op = "create"
				create()
			case r < 5:
				op = "dispatch"
				want := scan()
				if want != nil {
					act[want.ID()] = rng.Intn(3)
				}
				ran = nil
				if rt.Dispatch() != (want != nil) || ran != want {
					t.Fatalf("seed %d step %d: Dispatch ran %v, scan picked %v", seed, step, ran, want)
				}
			case r < 7:
				if th := pick(StateRunnable); th != nil {
					op = "dispatchthread"
					act[th.ID()] = rng.Intn(3)
					rt.DispatchThread(th)
				}
			default:
				if th := pick(StateBlocked); th != nil {
					front := rng.Intn(2) == 0
					op = "unblock back"
					if front {
						op = "unblock front"
					}
					rt.Unblock(th, front)
				}
			}
			check(step, op)
		}
		rt.Kill()
		check(61, "kill")
		if rt.readyMask != 0 {
			t.Fatalf("seed %d: readyMask %016b after Kill", seed, rt.readyMask)
		}
	}
}
