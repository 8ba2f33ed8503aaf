package main

import (
	"fmt"
	"time"

	"repro/internal/bench"
)

// scale1k is bench.Scale by hand at any N (default 1024, ~75 s; the golden
// test holds N = 64 and 256 at seed 7):
//
//	ncsbench -experiment scale1k -n 1024 -seed 7
//
// A diverged same-seed ring rerun is an error: CI runs this command and
// relies on the exit code.
func scale1k(n int, seed int64) error {
	if n < 2 {
		return fmt.Errorf("scale1k: -n must be at least 2, got %d", n)
	}
	start := time.Now()
	res := bench.Scale(n, seed)
	fmt.Print(bench.RenderScale(res))
	fmt.Printf("(simulated in %v wall)\n", time.Since(start).Round(time.Millisecond))
	if !res.Reproduced() {
		return fmt.Errorf("scale1k: same-seed ring timelines diverged: %s vs %s", res.Ring.Timeline, res.RingRerun.Timeline)
	}
	return nil
}
