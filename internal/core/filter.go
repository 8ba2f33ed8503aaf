package core

import "fmt"

// filter is the adapter under the message-passing filters (paper Figures 6
// and 12), which let "any parallel/distributed application written using
// these tools" port to NCS unchanged. P4Filter, PVMFilter and MPIFilter embed
// it and only map their tool's arguments. The tools address processes, so
// the adapter supplies the thread: sends go to the peer's same-index thread,
// receives accept any thread of the named processes, and a collective Group
// spans its members' same-index threads. Every call rides the NCS system
// threads, so it blocks only the calling thread.
type filter struct {
	t      *Thread
	groups map[string]*Group // by member list: repeated collectives share one tree
}

// send is a tagged send to the peer's same-index thread.
func (f *filter) send(tag int, to ProcID, data []byte) { f.t.SendTagged(tag, f.t.idx, to, data) }

// match is the receive pattern for tag (or Any) from any thread of one of
// procs (or Any); a match's index is its source's position in procs.
func (f *filter) match(tag int, procs ...ProcID) recvPattern {
	from := make([]Addr, len(procs))
	for i, id := range procs {
		from[i] = Addr{Proc: id, Thread: Any}
	}
	return recvPattern{tag: tag, from: from}
}

// group returns the collective Group over procs in that order, built on
// first use.
func (f *filter) group(procs []ProcID) *Group {
	key := fmt.Sprint(procs)
	if g := f.groups[key]; g != nil {
		return g
	}
	members := make([]Addr, len(procs))
	for i, id := range procs {
		members[i] = Addr{Proc: id, Thread: f.t.idx}
	}
	if f.groups == nil {
		f.groups = make(map[string]*Group)
	}
	f.groups[key] = f.t.proc.NewGroup(members, GroupConfig{})
	return f.groups[key]
}

// indexOf returns id's position in procs, or -1.
func indexOf(procs []ProcID, id ProcID) int {
	for i, p := range procs {
		if p == id {
			return i
		}
	}
	return -1
}

// P4Filter presents p4-style typed process-addressed primitives on top of
// an NCS thread.
type P4Filter struct{ filter }

// P4 returns the p4-style view of an NCS thread.
func P4(t *Thread) *P4Filter { return &P4Filter{filter{t: t}} }

// Send is p4_send: typed, process-addressed.
func (f *P4Filter) Send(typ int, to ProcID, data []byte) { f.send(typ, to, data) }

// Recv is p4_recv with -1 wildcards: *typ and *from are in/out parameters
// updated to the actual type and source; a nil one matches anything.
func (f *P4Filter) Recv(typ *int, from *ProcID) []byte {
	anyTyp, anyFrom := Any, ProcID(Any)
	if typ == nil {
		typ = &anyTyp
	}
	if from == nil {
		from = &anyFrom
	}
	m, _ := f.t.recvAnyOf(f.match(*typ, *from))
	*typ, *from = m.Tag, m.From
	return m.Data
}

// MessagesAvailable is p4_messages_available.
func (f *P4Filter) MessagesAvailable() bool { return f.t.MessagesAvailable(Any, Any) }
