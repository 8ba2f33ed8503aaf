//go:build budget

package budget

import (
	"sync"
	"sync/atomic"
)

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

// Mutex is a sync.Mutex whose acquisitions count in Locks, and in the
// mutex's own Acquired.
type Mutex struct {
	mu sync.Mutex
	n  atomic.Int64
}

// Lock locks m and counts the acquisition.
func (m *Mutex) Lock() {
	m.mu.Lock()
	m.n.Add(1)
	counts[Locks].Add(1)
}

// TryLock tries to lock m; an acquisition counts.
func (m *Mutex) TryLock() bool {
	if !m.mu.TryLock() {
		return false
	}
	m.n.Add(1)
	counts[Locks].Add(1)
	return true
}

// Unlock unlocks m.
func (m *Mutex) Unlock() { m.mu.Unlock() }

// Acquired returns how many times m has been acquired.
func (m *Mutex) Acquired() int64 { return m.n.Load() }
