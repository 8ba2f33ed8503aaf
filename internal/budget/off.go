//go:build !budget

package budget

import "sync"

// Mutex is sync.Mutex; the budget build counts its acquisitions in Locks.
type Mutex = sync.Mutex

// Enabled reports whether this build counts.
const Enabled = false

// Add counts n more of c; this build counts nothing.
func Add(c Counter, n int) {}

// Read returns the count of c; this build counts nothing.
func Read(c Counter) int64 { return 0 }

// Reset zeroes every counter; this build has none.
func Reset() {}
