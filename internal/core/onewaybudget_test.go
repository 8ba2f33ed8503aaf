//go:build budget

package core

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/budget"
	"repro/internal/mts"
	"repro/internal/transport"
)

// budgetCounts is one reading of the structural counters a message moves:
// mutex acquisitions through budget.Mutex (every lane's, every ring's, every
// runtime's post queue), the lane holds among them, and wire pool draws.
type budgetCounts struct{ locks, laneHolds, draws int64 }

func (c budgetCounts) sub(d budgetCounts) budgetCounts {
	return budgetCounts{c.locks - d.locks, c.laneHolds - d.laneHolds, c.draws - d.draws}
}

func laneHolds(procs ...*Proc) int64 {
	var n int64
	for _, p := range procs {
		for _, ln := range p.lanes {
			n += ln.mu.Acquired()
		}
	}
	return n
}

func readBudget(procs []*Proc) budgetCounts {
	return budgetCounts{budget.Read(budget.Locks), laneHolds(procs...), budget.Read(budget.PoolDraws)}
}

// modeOf returns the most frequent value and the share of samples that hold
// it, and renders the whole distribution for the log.
func modeOf(xs []int64) (mode int64, share float64, dist string) {
	freq := map[int64]int{}
	for _, x := range xs {
		freq[x]++
	}
	keys := make([]int64, 0, len(freq))
	for k := range freq {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var parts []string
	best := 0
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%d×%d", k, freq[k]))
		if freq[k] > best {
			mode, best = k, freq[k]
		}
	}
	return mode, float64(best) / float64(len(xs)), strings.Join(parts, " ")
}

// pinBudget checks that the count every sample (of per units) holds, in its
// most frequent value, is want per unit, and that at least 95 % of samples
// hold it: the rest are the Go scheduler preempting a goroutine mid-message
// or a GC cycle, which the logged distribution shows.
func pinBudget(t *testing.T, what string, xs []int64, per int, want int64) {
	t.Helper()
	mode, share, dist := modeOf(xs)
	t.Logf("%s: %d per sample of %d (%.1f %% of %d samples; %s)", what, mode, per, 100*share, len(xs), dist)
	if mode != want*int64(per) || share < 0.95 {
		t.Errorf("%s: %d per %d in %.1f %% of samples, want %d per %d in at least 95 %%", what, mode, per, 100*share, want*int64(per), per)
	}
}

// rangeBudget is pinBudget for a count the arrival pattern moves: at least
// 95 % of samples must lie in [lo, hi].
func rangeBudget(t *testing.T, what string, xs []int64, lo, hi int64) {
	t.Helper()
	in := 0
	for _, x := range xs {
		if lo <= x && x <= hi {
			in++
		}
	}
	_, _, dist := modeOf(xs)
	share := float64(in) / float64(len(xs))
	t.Logf("%s: %d-%d in %.1f %% of %d samples (%s)", what, lo, hi, 100*share, len(xs), dist)
	if share < 0.95 {
		t.Errorf("%s: %.1f %% of samples in %d-%d, want at least 95 %%", what, 100*share, lo, hi)
	}
}

// budgetMesh is n Mem procs on the goroutine driver with two lanes each.
func budgetMesh(t *testing.T, n int) []*Proc {
	return sigCluster(t, n, transport.NewMem(), func(_ int, cfg *Config) {
		cfg.SendLanes, cfg.RecvLanes = 2, 2
	})
}

// TestOneWayBudget is the per-message table's first row: the structural
// cost of a one-way 64 B Mem message on the goroutine driver, two lanes a
// proc, counted exactly (budget build only). GOMAXPROCS is 1 so each proc's
// goroutines run one at a time: a sender's message reaches a receiver that
// is parked in its receive, and every count below is read while the peer
// is parked too.
//
//   - oneway: 1,000 round trips between two procs. A one-way message takes
//     7 lock acquisitions — the sender's lane (laneSend); the receiver's
//     ring claim and release (ClaimOrPush, Release), its lane (the inline
//     pass's TryLock) and its post queue twice (Post, and the drain that
//     swaps it out); the receiver's lane again for the drain — of which 3
//     are lane holds, and 1 pool draw: the sender's marshal buffer
//     (GetFrame), which becomes the received frame and carries the decoded
//     Message.
//   - fan: the tokens of 250 radix-2 dissemination barriers over four procs
//     (two rounds, one token per proc per round). The sending proc holds its
//     lane once per token: staging, service and the inline retirement share
//     one hold, and no drain follows. A token is 1 pool draw, as above. The
//     locks the sender's goroutine takes per token — its lane, then the
//     receiver's inline pass — are 4 or 5 by arrival pattern, so they are a
//     range.
func TestOneWayBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	t.Run("oneway", func(t *testing.T) {
		const warm, rounds = 200, 1000
		procs := budgetMesh(t, 2)
		var samples []budgetCounts
		procs[0].TCreate("ping", mts.PrioDefault, func(th *Thread) {
			buf := make([]byte, 64)
			for i := 0; i < warm+rounds; i++ {
				before := readBudget(procs)
				th.Send(0, 1, buf)
				th.RecvInto(buf, 0, 1)
				if i >= warm {
					samples = append(samples, readBudget(procs).sub(before))
				}
			}
		})
		procs[1].TCreate("pong", mts.PrioDefault, func(th *Thread) {
			buf := make([]byte, 64)
			for i := 0; i < warm+rounds; i++ {
				n, _ := th.RecvInto(buf, 0, 0)
				th.Send(0, 0, buf[:n])
			}
		})
		runReal(procs)
		var locks, holds, draws []int64
		for _, s := range samples {
			locks, holds, draws = append(locks, s.locks), append(holds, s.laneHolds), append(draws, s.draws)
		}
		pinBudget(t, "locks per round trip", locks, 2, 7)
		pinBudget(t, "lane holds per round trip", holds, 2, 3)
		pinBudget(t, "pool draws per round trip", draws, 2, 1)
	})
	t.Run("fan", func(t *testing.T) {
		const n, warm, barriers = 4, 50, 250
		procs := budgetMesh(t, n)
		members := collGroup(n)
		var holds, locks, draws []int64
		for _, p := range procs {
			p := p
			p.TCreate("m", mts.PrioDefault, func(th *Thread) {
				g := p.NewGroup(members, GroupConfig{})
				for b := 0; b < warm+barriers; b++ {
					// Group.dissemBarrier, read around each token's fanSend:
					// the sending proc's own lane holds, and every lock and
					// draw made in the sender's goroutine, which on Mem
					// includes the receiver's inline pass.
					for k, sends := range g.barSend {
						own, before := laneHolds(p), readBudget(nil)
						g.fanSend(th, collTag(collOpBarrier, k), sends, nil, nil)
						if b >= warm {
							d := readBudget(nil).sub(before)
							holds = append(holds, laneHolds(p)-own)
							locks = append(locks, d.locks)
							draws = append(draws, d.draws)
						}
						g.recvMember(th, collTag(collOpBarrier, k), g.barRecv[k][0]).Release()
					}
				}
			})
		}
		runReal(procs)
		pinBudget(t, "sender lane holds per token", holds, 1, 1)
		// 5 when the token's receiver runs an inline pass and posts its
		// drain, 4 when a drain it posted for an earlier token is still
		// pending (the receiver has not run since).
		rangeBudget(t, "locks per token in the sender's goroutine", locks, 4, 5)
		pinBudget(t, "pool draws per token", draws, 1, 1)
	})
}
