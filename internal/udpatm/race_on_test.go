//go:build race

package udpatm

// raceEnabled: the race detector makes sync.Pool drop items on purpose, so
// an allocation pin over pooled buffers holds only without it.
const raceEnabled = true
