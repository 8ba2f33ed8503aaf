//go:build race

package mts

// raceEnabled: the race detector allocates on its own, so an exact allocation
// pin holds only without it.
const raceEnabled = true
