// Package work defines the compute hook that lets one application source
// run in both execution modes: real mode executes the actual kernel,
// simulation mode charges calibrated virtual CPU time to the thread's
// workstation.
package work

import (
	"time"

	"repro/internal/mts"
	"repro/internal/sim"
)

// Compute executes a unit of application work for thread t. Exactly one of
// the two arguments is honoured per mode: cost (sim) or fn (real). fn may
// be nil when there is no real work to do (pure-model benchmarks).
type Compute func(t *mts.Thread, cost time.Duration, fn func())

// Sim returns a Compute that charges cost as a CPU burst on node and
// ignores fn.
func Sim(node *sim.Node) Compute {
	return func(t *mts.Thread, cost time.Duration, fn func()) {
		node.Compute(t, cost)
	}
}

// Real returns a Compute that runs fn and ignores cost.
func Real() Compute {
	return func(t *mts.Thread, cost time.Duration, fn func()) {
		if fn != nil {
			fn()
		}
	}
}

// Both returns a Compute that runs fn for correctness *and* charges cost —
// used by tests that want real results under virtual time.
func Both(node *sim.Node) Compute {
	return func(t *mts.Thread, cost time.Duration, fn func()) {
		if fn != nil {
			fn()
		}
		node.Compute(t, cost)
	}
}
