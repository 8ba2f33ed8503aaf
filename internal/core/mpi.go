package core

// MPI message-passing filter (paper §6: "We are also investigating the
// performance of NCS MTS/p4 implementation when p4 is replaced by PVM and
// MPI"; Figure 6 shows the filter layer). The mapping mirrors the p4 and
// PVM filters: an MPI rank is an NCS process, MPI_COMM_WORLD is the set of
// processes the harness assembled, and point-to-point calls ride the NCS
// system threads so they block only the calling thread.

// MPI wildcard constants.
const (
	MPIAnySource = Any
	MPIAnyTag    = Any
)

// MPIStatus mirrors MPI_Status: the actual source, tag, and byte count of
// a completed receive.
type MPIStatus struct {
	Source ProcID
	Tag    int
	Count  int
}

// MPIFilter presents MPI-style primitives on top of an NCS thread.
type MPIFilter struct {
	t *Thread
	// world lists the communicator's members in rank order.
	world []ProcID
	// gcfg configures the collective communicator (channel pinning, tree
	// fanout); group is built lazily on the first collective call.
	gcfg  GroupConfig
	group *Group
}

// MPI returns the MPI-style view of an NCS thread, with the given
// MPI_COMM_WORLD membership (rank i = world[i]).
func MPI(t *Thread, world []ProcID) *MPIFilter {
	return &MPIFilter{t: t, world: world}
}

// MPIOn is MPI with the collectives pinned to a channel and tree fanout of
// the caller's choosing: Bcast and Barrier ride cfg.Channel (which must be
// open to every other rank) instead of the default channel.
func MPIOn(t *Thread, world []ProcID, cfg GroupConfig) *MPIFilter {
	return &MPIFilter{t: t, world: world, gcfg: cfg}
}

// commGroup builds (once) the communicator's collective Group. Like the
// point-to-point calls, the filter uses the same-index thread convention:
// every rank must drive its filter from the same thread index.
func (f *MPIFilter) commGroup() *Group {
	if f.group == nil {
		members := make([]Addr, len(f.world))
		for i, id := range f.world {
			members[i] = Addr{Proc: id, Thread: f.t.idx}
		}
		f.group = f.t.proc.NewGroup(members, f.gcfg)
	}
	return f.group
}

// Rank returns this process's rank in the communicator.
func (f *MPIFilter) Rank() int {
	for i, id := range f.world {
		if id == f.t.proc.cfg.ID {
			return i
		}
	}
	panic("core: mpi rank not in communicator")
}

// Size returns the communicator size.
func (f *MPIFilter) Size() int { return len(f.world) }

// Send is MPI_Send: blocking standard-mode send to a rank.
func (f *MPIFilter) Send(buf []byte, dest, tag int) {
	f.t.SendTagged(tag, f.t.idx, f.world[dest], buf)
}

// Recv is MPI_Recv: blocking receive from a rank (or MPIAnySource) with a
// tag (or MPIAnyTag).
func (f *MPIFilter) Recv(source, tag int) ([]byte, MPIStatus) {
	from := ProcID(Any)
	if source != MPIAnySource {
		from = f.world[source]
	}
	m, _ := f.t.recvAnyOf(recvPattern{tag: tag, from: []Addr{{Proc: from, Thread: Any}}})
	return m.Data, MPIStatus{Source: m.From, Tag: m.Tag, Count: len(m.Data)}
}

// Sendrecv is MPI_Sendrecv: the paired exchange that makes neighbour
// patterns deadlock-free. Under NCS the send is handed to the send system
// thread and only this thread parks, so send-then-receive cannot deadlock
// against a symmetric partner.
func (f *MPIFilter) Sendrecv(sendBuf []byte, dest, sendTag, source, recvTag int) ([]byte, MPIStatus) {
	f.Send(sendBuf, dest, sendTag)
	return f.Recv(source, recvTag)
}

// Bcast is MPI_Bcast over the communicator: the payload travels down the
// communicator's q-nomial tree (O(log N) critical path instead of the old
// root-serialized loop) and is returned on every rank.
func (f *MPIFilter) Bcast(buf []byte, root int) []byte {
	return f.commGroup().Bcast(f.t, root, buf)
}

// Barrier is MPI_Barrier over the communicator, as a dissemination barrier
// (no root; ceil(log2 N) rounds) on the communicator's group.
func (f *MPIFilter) Barrier() {
	f.commGroup().Barrier(f.t)
}
