//go:build budget

package budget

import "sync/atomic"

// Enabled reports whether this build counts.
const Enabled = true

var counts [numCounters]atomic.Int64

// Add counts n more of c.
func Add(c Counter, n int) { counts[c].Add(int64(n)) }

// Read returns the count of c since the last Reset.
func Read(c Counter) int64 { return counts[c].Load() }

// Reset zeroes every counter.
func Reset() {
	for i := range counts {
		counts[i].Store(0)
	}
}
