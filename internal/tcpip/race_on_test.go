//go:build race

package tcpip

const raceEnabled = true
