package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/mts"
)

func TestPVMBufferPackUnpack(t *testing.T) {
	b := &PVMBuffer{}
	b.PackInt32s([]int32{1, -2, 3})
	b.PackFloat64s([]float64{3.14, -2.72})
	b.PackBytes([]byte("tail"))

	r := &PVMBuffer{data: b.data}
	ints, err := r.UnpackInt32s()
	if err != nil || len(ints) != 3 || ints[1] != -2 {
		t.Fatalf("ints = %v, err %v", ints, err)
	}
	floats, err := r.UnpackFloat64s()
	if err != nil || floats[0] != 3.14 || floats[1] != -2.72 {
		t.Fatalf("floats = %v, err %v", floats, err)
	}
	raw, err := r.UnpackBytes()
	if err != nil || !bytes.Equal(raw, []byte("tail")) {
		t.Fatalf("bytes = %q, err %v", raw, err)
	}
}

func TestPVMBufferTypeMismatch(t *testing.T) {
	b := &PVMBuffer{}
	b.PackInt32s([]int32{1})
	r := &PVMBuffer{data: b.data}
	if _, err := r.UnpackFloat64s(); err != ErrPVMUnpack {
		t.Fatalf("err = %v, want ErrPVMUnpack", err)
	}
}

func TestPVMBufferTruncated(t *testing.T) {
	b := &PVMBuffer{}
	b.PackFloat64s([]float64{1, 2, 3})
	r := &PVMBuffer{data: b.data[:10]}
	if _, err := r.UnpackFloat64s(); err != ErrPVMUnpack {
		t.Fatalf("err = %v, want ErrPVMUnpack", err)
	}
}

// pvmUnpackers is each section type's unpacker, its code and element size.
var pvmUnpackers = []struct {
	name   string
	code   byte
	size   int
	unpack func(*PVMBuffer) (int, error)
}{
	{"int32", pvmInt32, 4, func(b *PVMBuffer) (int, error) { xs, err := b.UnpackInt32s(); return len(xs), err }},
	{"float64", pvmFloat64, 8, func(b *PVMBuffer) (int, error) { xs, err := b.UnpackFloat64s(); return len(xs), err }},
	{"bytes", pvmBytes, 1, func(b *PVMBuffer) (int, error) { xs, err := b.UnpackBytes(); return len(xs), err }},
}

// TestPVMHugeLengthRefused: a length word of 2^32-1 — a negative int where
// int is 32 bits — is refused with ErrPVMUnpack by every section type, not
// turned into a panicking make or slice expression, and the buffer stays put.
func TestPVMHugeLengthRefused(t *testing.T) {
	for _, u := range pvmUnpackers {
		r := &PVMBuffer{data: []byte{u.code, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4}}
		if n, err := u.unpack(r); err != ErrPVMUnpack || n != 0 || r.pos != 0 {
			t.Errorf("%s: %d elements, err %v, at %d; want ErrPVMUnpack at 0", u.name, n, err, r.pos)
		}
	}
}

// FuzzPVMUnpack unpacks arbitrary bytes section by section, trying every
// type at each: nothing panics, an accepted section's elements fit the bytes
// that were left, and the buffer advances by exactly the section.
func FuzzPVMUnpack(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &PVMBuffer{data: data}
		for progressed := true; progressed; {
			progressed = false
			for _, u := range pvmUnpackers {
				pos := r.pos
				n, err := u.unpack(r)
				if err != nil {
					if r.pos != pos {
						t.Fatalf("%s: refused section moved the buffer %d -> %d", u.name, pos, r.pos)
					}
					continue
				}
				if left := len(data) - pos; 5+n*u.size > left || r.pos != pos+5+n*u.size {
					t.Fatalf("%s: %d elements from %d bytes left, buffer %d -> %d", u.name, n, left, pos, r.pos)
				}
				progressed = true
				break
			}
		}
	})
}

func TestPVMSendRecvAcrossProcs(t *testing.T) {
	eng, procs := simCluster(t, 2, nil)
	var ints []int32
	var floats []float64
	procs[0].TCreate("pvm-sender", mts.PrioDefault, func(th *Thread) {
		f := PVM(th)
		buf := f.InitSend()
		buf.PackInt32s([]int32{10, 20})
		buf.PackFloat64s([]float64{1.5})
		f.Send(1, 99)
	})
	procs[1].TCreate("pvm-recv", mts.PrioDefault, func(th *Thread) {
		f := PVM(th)
		buf := f.Recv(0, 99)
		ints, _ = buf.UnpackInt32s()
		floats, _ = buf.UnpackFloat64s()
	})
	eng.Run()
	if len(ints) != 2 || ints[0] != 10 || ints[1] != 20 || floats[0] != 1.5 {
		t.Fatalf("ints=%v floats=%v", ints, floats)
	}
}

func TestPVMMcast(t *testing.T) {
	eng, procs := simCluster(t, 3, nil)
	got := make([]int32, 3)
	procs[0].TCreate("caster", mts.PrioDefault, func(th *Thread) {
		f := PVM(th)
		f.InitSend().PackInt32s([]int32{7})
		f.Mcast([]ProcID{1, 2}, 5)
	})
	for i := 1; i < 3; i++ {
		i := i
		procs[i].TCreate("member", mts.PrioDefault, func(th *Thread) {
			buf := PVM(th).Recv(Any, 5)
			v, _ := buf.UnpackInt32s()
			got[i] = v[0]
		})
	}
	eng.Run()
	if got[1] != 7 || got[2] != 7 {
		t.Fatalf("got %v", got)
	}
}

func TestPVMNRecv(t *testing.T) {
	eng, procs := simCluster(t, 2, nil)
	var firstProbe, laterProbe bool
	procs[1].TCreate("prober", mts.PrioDefault, func(th *Thread) {
		f := PVM(th)
		_, firstProbe = f.NRecv(Any, Any)
		// Block until something arrives, then probe again for the second.
		f.Recv(Any, Any)
		for {
			if _, ok := f.NRecv(Any, Any); ok {
				laterProbe = true
				return
			}
			th.Compute(1e6, nil) // 1 ms
		}
	})
	procs[0].TCreate("sender", mts.PrioDefault, func(th *Thread) {
		f := PVM(th)
		f.InitSend().PackBytes([]byte("a"))
		f.Send(1, 1)
		f.InitSend().PackBytes([]byte("b"))
		f.Send(1, 2)
	})
	eng.Run()
	if firstProbe {
		t.Fatal("NRecv matched before any send")
	}
	if !laterProbe {
		t.Fatal("NRecv never matched the queued message")
	}
}

func TestPVMSendWithoutInitPanics(t *testing.T) {
	eng, procs := simCluster(t, 1, nil)
	procs[0].TCreate("bad", mts.PrioDefault, func(th *Thread) {
		defer func() {
			if recover() == nil {
				t.Error("Send without InitSend accepted")
			}
		}()
		PVM(th).Send(0, 1)
	})
	eng.Run()
}

// PVM's collectives on 4 tasks whose tids are not in ID order and whose
// root is not first: two Barriers and a Bcast over one list share one cached
// Group; a Bcast over a second list builds a second.
func TestPVMBarrierBcastGroups(t *testing.T) {
	eng, procs := simCluster(t, 4, nil)
	tids := []ProcID{3, 1, 0, 2}
	other := []ProcID{2, 0, 3, 1}
	arrived := 0
	for i := 0; i < 4; i++ {
		i := i
		procs[i].TCreate("task", mts.PrioDefault, func(th *Thread) {
			f := PVM(th)
			var first *Group
			for round := 1; round <= 2; round++ {
				th.Compute(time.Duration(i+1)*time.Millisecond, nil)
				arrived++
				f.Barrier(tids)
				if arrived != 4*round {
					t.Errorf("task %d left barrier %d with %d arrivals", i, round, arrived)
				}
				f.Barrier(tids) // nobody counts the next round before all checked this one
				if first == nil {
					first = f.group(tids)
				}
			}
			if i == 0 {
				f.InitSend().PackInt32s([]int32{42})
			}
			v, err := f.Bcast(tids, 0).UnpackInt32s()
			if err != nil || len(v) != 1 || v[0] != 42 {
				t.Errorf("task %d: Bcast from 0 = %v, %v", i, v, err)
			}
			if len(f.groups) != 1 || f.group(tids) != first {
				t.Errorf("task %d: collectives over one list built %d groups or a fresh one", i, len(f.groups))
			}
			if i == 3 {
				f.InitSend().PackBytes([]byte("second"))
			}
			b, err := f.Bcast(other, 3).UnpackBytes()
			if err != nil || string(b) != "second" {
				t.Errorf("task %d: Bcast from 3 = %q, %v", i, b, err)
			}
			if len(f.groups) != 2 {
				t.Errorf("task %d: %d groups after a second list", i, len(f.groups))
			}
		})
	}
	eng.Run()
}
