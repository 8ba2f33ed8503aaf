// Package budget counts structural quantities on the datapath — octets
// through the AAL5 CRC table loop, payload octets copied — exactly, so a
// change to a hot path states what it moved as a count, not only as a
// wall-clock median that drifts by host hour.
//
// The counters exist only under the budget build tag:
//
//	go test -tags budget ./internal/atm ./internal/wire ./internal/udpatm ./internal/core
//
// Under the default build Add is an empty function the compiler inlines
// away, Enabled is false and every Read is 0, so the instrumented sites
// cost nothing.
package budget

// Counter names one counted quantity.
type Counter int

const (
	// TableOctets counts octets through the AAL5 CRC-32 table loop.
	TableOctets Counter = iota
	// SendCopied counts payload octets a send path copied: the cell
	// payloads AAL5 segmentation moves, an error-control retention copy.
	SendCopied
	// RecvCopied counts payload octets a receive path copied: AAL5
	// reassembly (and a lent frame that outgrew its place), chunk
	// assembly of a chunk that was not gathered in place, the move of a
	// message into a larger frame, the copy into a RecvInto buffer.
	RecvCopied

	numCounters
)
