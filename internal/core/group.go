package core

// Group communication beyond Bcast/Gather (paper §3.1 lists 1-to-many,
// many-to-1 and many-to-many classes). These are thin compositions of the
// point-to-point primitives, which is exactly how the paper layers them:
// group operations are library code above NCS_send/NCS_recv. They are the
// *linear* O(N) forms; the logarithmic, channel-pinnable tree collectives
// live in coll.go (Group), and the linear forms remain as the degenerate
// Fanout >= N case the scale benches measure against.

// AllToAll performs the many-to-many exchange: every participating thread
// contributes one payload per peer and receives one payload from each.
// group lists the participating (process, thread) addresses in a globally
// agreed order, and self must be this thread's position in it. data[i] is
// the payload for group[i] (data[self] is returned as-is). The result is
// indexed like group.
func (t *Thread) AllToAll(group []Addr, self int, data [][]byte) [][]byte {
	if len(group) != len(data) {
		panic("core: AllToAll group/data length mismatch")
	}
	out := make([][]byte, len(group))
	out[self] = data[self]
	// Send to everyone first (each Send parks only until the transfer is
	// handed off), then collect; ordering by group index keeps the
	// pattern deadlock-free since receives match on explicit sources.
	for i, a := range group {
		if i == self {
			continue
		}
		t.Send(a.Thread, a.Proc, data[i])
	}
	for i, a := range group {
		if i == self {
			continue
		}
		payload, _ := t.Recv(a.Thread, a.Proc)
		out[i] = payload
	}
	return out
}

// Reduce gathers one payload from every address in list and folds them
// with fn, seeded by own. Like the paper's many-to-1 class with a
// combining function; the root calls Reduce, the leaves just Send.
// Payloads fold in *arrival* order, not list order, so one slow peer never
// head-of-line-blocks contributions already delivered — fn must therefore
// be commutative as well as associative (true of every reduction the
// paper's workloads use: sums, maxima, concatenation-by-key).
// Group.Reduce is the tree-structured alternative for large N.
func (t *Thread) Reduce(list []Addr, own []byte, fn func(acc, next []byte) []byte) []byte {
	acc := own
	pending := append([]Addr(nil), list...)
	held := make([]*wireMessage, 0, len(list))
	for len(pending) > 0 {
		m, i := t.recvAnyOf(0, Any, pending)
		acc = fn(acc, m.Data)
		held = append(held, m)
		pending = append(pending[:i], pending[i+1:]...)
	}
	acc = ownedResult(acc, own)
	releaseAll(held)
	return acc
}
