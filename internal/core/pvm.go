package core

import (
	"encoding/binary"
	"errors"
	"math"
)

// PVM message-passing filter (paper Figures 6 and 12; §6 notes the
// NCS_MTS/PVM investigation). PVM programs talk to typed pack buffers and
// task-addressed tagged messages:
//
//	pvm_initsend();  pvm_pkint(...);  pvm_send(tid, tag)
//	pvm_recv(tid, tag);  pvm_upkint(...)
//
// A PVM "task" is an NCS process. The pack/unpack buffer has type-checked
// sections, so mismatched unpacks fail loudly instead of silently
// misreading.

// PVMFilter presents PVM-style primitives on top of an NCS thread.
type PVMFilter struct {
	filter
	out *PVMBuffer // the send buffer
}

// PVM returns the PVM-style view of an NCS thread.
func PVM(t *Thread) *PVMFilter { return &PVMFilter{filter: filter{t: t}} }

// Barrier blocks until every task in tids has entered it: pvm_barrier with
// an explicit member list, run as a dissemination barrier over the task
// group. All listed tasks must call it with the same list.
func (f *PVMFilter) Barrier(tids []ProcID) { f.group(tids).Barrier(f.t) }

// Bcast transmits the current send buffer from root to every task in tids
// down the binomial tree: pvm_bcast with an explicit member list. All
// listed tasks must call it with the same list and root; every call
// returns the broadcast unpack buffer (the root's own packed data).
func (f *PVMFilter) Bcast(tids []ProcID, root ProcID) *PVMBuffer {
	rootIdx := indexOf(tids, root)
	if rootIdx < 0 {
		panic("core: pvm Bcast root not in tids")
	}
	var data []byte
	if f.t.proc.cfg.ID == root {
		if f.out == nil {
			panic("core: pvm Bcast without InitSend")
		}
		data = f.out.data
	}
	return &PVMBuffer{data: f.group(tids).Bcast(f.t, rootIdx, data)}
}

// Section type codes in the buffer encoding.
const (
	pvmInt32   = 1
	pvmFloat64 = 2
	pvmBytes   = 3
)

// PVMBuffer is a typed pack/unpack buffer.
type PVMBuffer struct {
	data []byte
	pos  int
}

// ErrPVMUnpack reports a type or bounds mismatch during unpacking.
var ErrPVMUnpack = errors.New("core: pvm unpack mismatch")

// InitSend starts a fresh send buffer: pvm_initsend.
func (f *PVMFilter) InitSend() *PVMBuffer {
	f.out = &PVMBuffer{}
	return f.out
}

func (b *PVMBuffer) section(code byte, n int) {
	b.data = append(b.data, code)
	var len4 [4]byte
	binary.BigEndian.PutUint32(len4[:], uint32(n))
	b.data = append(b.data, len4[:]...)
}

// PackInt32s appends an int32 array: pvm_pkint.
func (b *PVMBuffer) PackInt32s(xs []int32) {
	b.section(pvmInt32, len(xs))
	for _, x := range xs {
		var v [4]byte
		binary.BigEndian.PutUint32(v[:], uint32(x))
		b.data = append(b.data, v[:]...)
	}
}

// PackFloat64s appends a float64 array: pvm_pkdouble.
func (b *PVMBuffer) PackFloat64s(xs []float64) {
	b.section(pvmFloat64, len(xs))
	for _, x := range xs {
		var v [8]byte
		binary.BigEndian.PutUint64(v[:], math.Float64bits(x))
		b.data = append(b.data, v[:]...)
	}
}

// PackBytes appends raw bytes: pvm_pkbyte.
func (b *PVMBuffer) PackBytes(xs []byte) {
	b.section(pvmBytes, len(xs))
	b.data = append(b.data, xs...)
}

// expect reads the header of the next section, which must be of type code
// with elements of size bytes each, and returns its element count. The count
// is checked against the bytes left as a 64-bit product, before it becomes an
// int: a length word no buffer could hold fails alike where int is 32 bits.
// A refused section leaves the buffer where it was.
func (b *PVMBuffer) expect(code byte, size int) (int, error) {
	rest := b.data[b.pos:]
	if len(rest) < 5 || rest[0] != code {
		return 0, ErrPVMUnpack
	}
	n := uint64(binary.BigEndian.Uint32(rest[1:]))
	if n*uint64(size) > uint64(len(rest)-5) {
		return 0, ErrPVMUnpack
	}
	b.pos += 5
	return int(n), nil
}

// UnpackInt32s reads the next section as int32s: pvm_upkint.
func (b *PVMBuffer) UnpackInt32s() ([]int32, error) {
	n, err := b.expect(pvmInt32, 4)
	if err != nil {
		return nil, err
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.BigEndian.Uint32(b.data[b.pos:]))
		b.pos += 4
	}
	return out, nil
}

// UnpackFloat64s reads the next section as float64s: pvm_upkdouble.
func (b *PVMBuffer) UnpackFloat64s() ([]float64, error) {
	n, err := b.expect(pvmFloat64, 8)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(b.data[b.pos:]))
		b.pos += 8
	}
	return out, nil
}

// UnpackBytes reads the next section as raw bytes: pvm_upkbyte.
func (b *PVMBuffer) UnpackBytes() ([]byte, error) {
	n, err := b.expect(pvmBytes, 1)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), b.data[b.pos:b.pos+n]...)
	b.pos += n
	return out, nil
}

// Send transmits the current send buffer to a task with a message tag:
// pvm_send. The buffer remains valid for Mcast-style resends.
func (f *PVMFilter) Send(tid ProcID, tag int) error {
	if f.out == nil {
		panic("core: pvm Send without InitSend")
	}
	return f.send(tag, tid, f.out.data)
}

// Mcast transmits the current buffer to several tasks: pvm_mcast. It
// returns the failed sends' errors joined.
func (f *PVMFilter) Mcast(tids []ProcID, tag int) (err error) {
	for _, tid := range tids {
		err = errors.Join(err, f.Send(tid, tag))
	}
	return err
}

// Recv blocks until a message with the given source task and tag arrives
// (Any wildcards both): pvm_recv. It returns the unpack buffer.
func (f *PVMFilter) Recv(tid ProcID, tag int) *PVMBuffer {
	m, _ := f.t.recvAnyOf(f.match(tag, tid))
	return &PVMBuffer{data: m.Data}
}

// NRecv is the non-blocking probe-and-receive: pvm_nrecv. ok reports
// whether a matching message was consumed.
func (f *PVMFilter) NRecv(tid ProcID, tag int) (*PVMBuffer, bool) {
	data, _, ok := f.t.tryRecv(f.match(tag, tid))
	if !ok {
		return nil, false
	}
	return &PVMBuffer{data: data}, true
}
