package core

import "time"

// This file is the package's only sanctioned contact with the wall clock,
// and CI greps enforce that (see the clock-seam lint step in ci.yml): every
// other time source in internal/core rides Config.After / RT.Now, so a
// virtual-time harness controls them all by injecting the engine's timer.
// What remains here is real-mode-only machinery that deliberately avoids
// cfg.After.

// rebalanceLoop drives rebalanceTick off one reusable ticker on its own
// goroutine. The tick touches only atomics and the hot lane's MPSC ring —
// nothing scheduler- or lane-domain — so in real mode it does not ride
// cfg.After, whose one-shot timers would allocate every interval and show
// up in the steady-state allocation pins. (Virtual mode has no allocation
// pins to protect and no goroutines to spare: startRebalance runs the tick
// as a chain of virtual-timer events instead.) It is started by the proc's
// second channel (channelAdded) and exits on the first tick after the
// process starts closing.
func (p *Proc) rebalanceLoop() {
	tk := time.NewTicker(p.rebalEvery)
	defer tk.Stop()
	for range tk.C {
		if p.closing.Load() {
			return
		}
		p.rebalanceTick()
	}
}
