//go:build !race

package udpatm

const raceEnabled = false
