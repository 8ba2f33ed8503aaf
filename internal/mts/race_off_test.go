//go:build !race

package mts

const raceEnabled = false
