package core

// Message-passing filters (paper Figures 6 and 12): adapters that map the
// primitives of existing tools onto NCS so "any parallel/distributed
// application written using these tools can be ported to NCS without any
// change". The p4 filter is implemented here; its API mirrors internal/p4
// but every call rides the NCS system threads, so a program ported through
// the filter gains non-blocking-process semantics for free when it runs
// multiple threads.

// P4Filter presents p4-style typed process-addressed primitives on top of
// an NCS thread.
type P4Filter struct {
	t *Thread
}

// P4 returns the p4-style view of an NCS thread.
func P4(t *Thread) *P4Filter { return &P4Filter{t: t} }

// Send is p4_send: typed, process-addressed. It maps onto an NCS tagged
// send targeted at the peer's same-index thread.
func (f *P4Filter) Send(typ int, to ProcID, data []byte) {
	f.t.SendTagged(typ, f.t.idx, to, data)
}

// Recv is p4_recv with -1 wildcards: *typ and *from are in/out parameters
// updated to the actual type and source.
func (f *P4Filter) Recv(typ *int, from *ProcID) []byte {
	wantTag := Any
	if typ != nil {
		wantTag = *typ
	}
	wantFrom := ProcID(Any)
	if from != nil {
		wantFrom = *from
	}
	// Match on tag and source process only (p4 has no thread addressing):
	// accept from any source thread.
	m, _ := f.t.recvAnyOf(recvPattern{tag: wantTag, from: []Addr{{Proc: wantFrom, Thread: Any}}})
	if typ != nil {
		*typ = m.Tag
	}
	if from != nil {
		*from = m.From
	}
	return m.Data
}

// MessagesAvailable is p4_messages_available.
func (f *P4Filter) MessagesAvailable() bool {
	return f.t.MessagesAvailable(Any, ProcID(Any))
}
