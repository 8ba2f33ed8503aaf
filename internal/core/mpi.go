package core

// MPI message-passing filter (paper §6: "We are also investigating the
// performance of NCS MTS/p4 implementation when p4 is replaced by PVM and
// MPI"; Figure 6 shows the filter layer). An MPI rank is an NCS process and
// MPI_COMM_WORLD is the set of processes the harness assembled.

// MPI wildcard constants.
const (
	MPIAnySource = Any
	MPIAnyTag    = Any
)

// MPIStatus mirrors MPI_Status: the actual source rank, tag, and byte count
// of a completed receive.
type MPIStatus struct {
	Source int
	Tag    int
	Count  int
}

// MPIFilter presents MPI-style primitives on top of an NCS thread.
type MPIFilter struct {
	filter
	world []ProcID // the communicator's members in rank order
}

// MPI returns the MPI-style view of an NCS thread, with the given
// MPI_COMM_WORLD membership (rank i = world[i]).
func MPI(t *Thread, world []ProcID) *MPIFilter {
	return &MPIFilter{filter: filter{t: t}, world: world}
}

// Rank returns this process's rank in the communicator.
func (f *MPIFilter) Rank() int {
	if r := indexOf(f.world, f.t.proc.cfg.ID); r >= 0 {
		return r
	}
	panic("core: mpi rank not in communicator")
}

// Size returns the communicator size.
func (f *MPIFilter) Size() int { return len(f.world) }

// Send is MPI_Send: blocking standard-mode send to a rank.
func (f *MPIFilter) Send(buf []byte, dest, tag int) { f.send(tag, f.world[dest], buf) }

// Recv is MPI_Recv: blocking receive from a rank (or MPIAnySource: any
// member of the communicator) with a tag (or MPIAnyTag).
func (f *MPIFilter) Recv(source, tag int) ([]byte, MPIStatus) {
	lo, hi := 0, len(f.world)
	if source != MPIAnySource {
		lo, hi = source, source+1
	}
	m, i := f.t.recvAnyOf(f.match(tag, f.world[lo:hi]...))
	return m.Data, MPIStatus{Source: lo + i, Tag: m.Tag, Count: len(m.Data)}
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
// communicator's binomial tree and is returned on every rank.
func (f *MPIFilter) Bcast(buf []byte, root int) []byte {
	return f.group(f.world).Bcast(f.t, root, buf)
}

// Barrier is MPI_Barrier over the communicator, as a dissemination barrier
// (no root; ceil(log2 N) rounds).
func (f *MPIFilter) Barrier() { f.group(f.world).Barrier(f.t) }
