package core

import (
	"fmt"
	"testing"
	"time"
)

// vmeshRingWorkload drives a seeded neighbor-ring exchange on a virtual
// mesh: proc i sends msgs random-sized messages to (i+1) mod n on the
// default channel, then consumes the ones from (i-1) mod n. Returns the
// timeline hash of the completed run.
func vmeshRingWorkload(t *testing.T, n int, seed int64, msgs int, cfg VirtualMeshConfig) string {
	t.Helper()
	vm := NewVirtualMesh(n, seed, cfg)
	for i, p := range vm.Procs {
		i := i
		rng := vm.Rand(int64(i))
		sizes := make([]int, msgs)
		for k := range sizes {
			sizes[k] = 64 + rng.Intn(4096)
		}
		p.TCreate(fmt.Sprintf("ring%d", i), 5, func(th *Thread) {
			next := ProcID((i + 1) % n)
			prev := ProcID((i - 1 + n) % n)
			for _, sz := range sizes {
				th.Send(0, next, make([]byte, sz))
			}
			for k := 0; k < msgs; k++ {
				data, from := th.Recv(Any, prev)
				if from.Proc != prev {
					t.Errorf("proc %d: message from %d, want %d", i, from.Proc, prev)
				}
				if len(data) == 0 {
					t.Errorf("proc %d: empty payload", i)
				}
			}
		})
	}
	vm.Run()
	for i, p := range vm.Procs {
		if got := p.Received(); got != int64(msgs) {
			t.Fatalf("proc %d received %d messages, want %d", i, got, msgs)
		}
	}
	return vm.TimelineHash()
}

// TestVirtualMeshDeterminism is the determinism contract: two N=64 runs
// with the same seed must produce byte-identical timeline hashes; a third
// run with a different seed (different payload sizes → different
// serialization times) must not.
func TestVirtualMeshDeterminism(t *testing.T) {
	const n, msgs = 64, 4
	a := vmeshRingWorkload(t, n, 7, msgs, VirtualMeshConfig{})
	b := vmeshRingWorkload(t, n, 7, msgs, VirtualMeshConfig{})
	if a != b {
		t.Fatalf("same seed diverged:\n  run1 %s\n  run2 %s", a, b)
	}
	c := vmeshRingWorkload(t, n, 8, msgs, VirtualMeshConfig{})
	if a == c {
		t.Fatalf("different seeds produced identical timeline %s", a)
	}
	t.Logf("n=%d seed=7 timeline %s", n, a)
}

// TestVirtualMeshDisciplines runs the ring under windowed flow + go-back-N
// so credit advertisements, acks, piggybacking, the flush wheel, and the
// retransmit timers all ride the virtual clock; determinism must hold for
// the full protocol stack, not just the bare path.
func TestVirtualMeshDisciplines(t *testing.T) {
	cfg := VirtualMeshConfig{
		Flow:  NewWindowFlow(4),
		Error: NewGoBackN(8, 5*time.Millisecond),
	}
	a := vmeshRingWorkload(t, 16, 3, 8, cfg)
	b := vmeshRingWorkload(t, 16, 3, 8, cfg)
	if a != b {
		t.Fatalf("same seed diverged under disciplines:\n  run1 %s\n  run2 %s", a, b)
	}
}

// TestVirtualMeshRace is the -race pass of the virtual harness at small N:
// correctness (payload counts) matters here, not hash equality, and the
// race detector checks that the event-loop execution of lane code really is
// single-threaded.
func TestVirtualMeshRace(t *testing.T) {
	vmeshRingWorkload(t, 8, 11, 6, VirtualMeshConfig{})
}

// TestVirtualMeshCollectives checks collectives on a virtual mesh: a
// dissemination barrier and a binomial bcast on the default channel across
// N=16, with payload integrity at every member.
func TestVirtualMeshCollectives(t *testing.T) {
	const n = 16
	vm := NewVirtualMesh(n, 1, VirtualMeshConfig{})
	members := make([]Addr, n)
	for i := range members {
		members[i] = Addr{Proc: ProcID(i), Thread: 0}
	}
	payload := []byte("virtual-mesh bcast payload")
	for i, p := range vm.Procs {
		i := i
		p.TCreate(fmt.Sprintf("coll%d", i), 5, func(th *Thread) {
			g := th.Proc().NewGroup(members, GroupConfig{})
			g.Barrier(th)
			got := g.Bcast(th, 0, append([]byte(nil), payload...))
			if string(got) != string(payload) {
				t.Errorf("member %d: bcast got %q", i, got)
			}
			g.Barrier(th)
		})
	}
	vm.Run()
	if vm.Now() <= 0 {
		t.Fatalf("no virtual time elapsed")
	}
}

// TestVirtualMeshNowIsTheWorkloadsEnd: a run's last event is the workload's,
// so Now after Run is the modeled duration every sweep divides by. One 64-byte
// message between two procs models a few tens of microseconds (an N=64 barrier
// of six rounds models 243.6 µs); a periodic internal event that outlived the
// workload would show up here as a round multiple of its period.
func TestVirtualMeshNowIsTheWorkloadsEnd(t *testing.T) {
	vm := NewVirtualMesh(2, 1, VirtualMeshConfig{})
	vm.Procs[0].TCreate("tx", 5, func(th *Thread) { th.Send(0, 1, make([]byte, 64)) })
	vm.Procs[1].TCreate("rx", 5, func(th *Thread) {
		if data, _ := th.Recv(Any, 0); len(data) != 64 {
			t.Errorf("received %d bytes, want 64", len(data))
		}
	})
	vm.Run()
	if now := vm.Now(); now <= 0 || now >= 2*time.Millisecond {
		t.Fatalf("one 64-byte message took %v of virtual time, want under 2ms", now)
	}
}
