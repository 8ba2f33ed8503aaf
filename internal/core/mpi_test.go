package core

import (
	"testing"
	"time"

	"repro/internal/mts"
)

func mpiWorld(n int) []ProcID {
	world := make([]ProcID, n)
	for i := range world {
		world[i] = ProcID(i)
	}
	return world
}

func TestMPIRankAndSize(t *testing.T) {
	eng, procs := simCluster(t, 3, nil)
	world := mpiWorld(3)
	for i := 0; i < 3; i++ {
		i := i
		procs[i].TCreate("r", mts.PrioDefault, func(th *Thread) {
			f := MPI(th, world)
			if f.Rank() != i || f.Size() != 3 {
				t.Errorf("rank/size = %d/%d, want %d/3", f.Rank(), f.Size(), i)
			}
		})
	}
	eng.Run()
}

func TestMPISendRecvWithStatus(t *testing.T) {
	eng, procs := simCluster(t, 2, nil)
	world := mpiWorld(2)
	var status MPIStatus
	var data []byte
	procs[0].TCreate("r0", mts.PrioDefault, func(th *Thread) {
		MPI(th, world).Send([]byte("hello mpi"), 1, 42)
	})
	procs[1].TCreate("r1", mts.PrioDefault, func(th *Thread) {
		data, status = MPI(th, world).Recv(MPIAnySource, MPIAnyTag)
	})
	eng.Run()
	if string(data) != "hello mpi" || status.Source != 0 || status.Tag != 42 || status.Count != 9 {
		t.Fatalf("data %q status %+v", data, status)
	}
}

// A status's Source is the sender's rank, and MPIAnySource matches only
// members of the communicator. On a world whose ranks are not the proc IDs,
// rank 0 answers a request at status.Source: were Source a proc ID, the
// reply would go to rank 0 itself and rank 1 would wait forever. Proc 3,
// outside the world, sends first with the same tag; AnySource must skip it.
func TestMPIStatusSourceIsRank(t *testing.T) {
	eng, procs := simCluster(t, 4, nil)
	world := []ProcID{2, 0, 1}
	var status MPIStatus
	var req, reply []byte
	procs[3].TCreate("outsider", mts.PrioDefault, func(th *Thread) {
		th.SendTagged(5, 0, 2, []byte("stray"))
	})
	procs[2].TCreate("r0", mts.PrioDefault, func(th *Thread) {
		f := MPI(th, world)
		req, status = f.Recv(MPIAnySource, 5)
		f.Send([]byte("reply"), status.Source, 6)
	})
	procs[0].TCreate("r1", mts.PrioDefault, func(th *Thread) {
		f := MPI(th, world)
		th.Compute(5*time.Millisecond, nil)
		f.Send([]byte("request"), 0, 5)
		reply, _ = f.Recv(0, 6)
	})
	procs[1].TCreate("r2", mts.PrioDefault, func(th *Thread) {})
	eng.Run()
	if string(req) != "request" || status.Source != 1 || status.Tag != 5 {
		t.Fatalf("rank 0 got %q with status %+v, want \"request\" from rank 1", req, status)
	}
	if string(reply) != "reply" {
		t.Fatalf("rank 1 got reply %q", reply)
	}
}

func TestMPISendrecvRing(t *testing.T) {
	// The classic neighbour exchange that deadlocks naive blocking MPI:
	// every rank sends right and receives from the left simultaneously.
	const n = 4
	eng, procs := simCluster(t, n, nil)
	world := mpiWorld(n)
	got := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		procs[i].TCreate("r", mts.PrioDefault, func(th *Thread) {
			f := MPI(th, world)
			right := (i + 1) % n
			left := (i + n - 1) % n
			data, _ := f.Sendrecv([]byte{byte(i)}, right, 1, left, 1)
			got[i] = int(data[0])
		})
	}
	eng.Run()
	for i := 0; i < n; i++ {
		if got[i] != (i+n-1)%n {
			t.Fatalf("rank %d got %d, want %d", i, got[i], (i+n-1)%n)
		}
	}
}

func TestMPIBcast(t *testing.T) {
	const n = 4
	eng, procs := simCluster(t, n, nil)
	world := mpiWorld(n)
	results := make([]string, n)
	for i := 0; i < n; i++ {
		i := i
		procs[i].TCreate("r", mts.PrioDefault, func(th *Thread) {
			f := MPI(th, world)
			var payload []byte
			if f.Rank() == 2 {
				payload = []byte("from-root-2")
			}
			results[i] = string(f.Bcast(payload, 2))
		})
	}
	eng.Run()
	for i, r := range results {
		if r != "from-root-2" {
			t.Fatalf("rank %d got %q", i, r)
		}
	}
}

func TestMPIBarrierSynchronizes(t *testing.T) {
	const n = 3
	eng, procs := simCluster(t, n, nil)
	world := mpiWorld(n)
	arrived := 0
	for i := 0; i < n; i++ {
		i := i
		procs[i].TCreate("r", mts.PrioDefault, func(th *Thread) {
			f := MPI(th, world)
			th.Compute(time.Duration(i+1)*5*time.Millisecond, nil)
			arrived++
			f.Barrier()
			if arrived != n {
				t.Errorf("rank %d passed barrier with %d arrivals", i, arrived)
			}
		})
	}
	eng.Run()
}
