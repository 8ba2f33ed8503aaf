//go:build race

package core

// raceEnabled: the race detector makes sync.Pool drop items on purpose, so
// an exact allocation pin over a pooled carrier holds only without it.
const raceEnabled = true
