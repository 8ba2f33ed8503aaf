package wire

import (
	"fmt"
	"reflect"
	"testing"
)

// TestHeaderLen: the header length read off a frame's flag octet is the
// length the encoder wrote, for every control-word combination; a frame too
// short for the flag octet reads as the base header.
func TestHeaderLen(t *testing.T) {
	for _, m := range []*Message{
		{From: 1, To: 2, Data: []byte("x")},
		{From: 1, To: 2, HasCredit: true},
		{From: 1, To: 2, HasAck: true, Data: []byte("xyz")},
		{From: 1, To: 2, HasCredit: true, HasAck: true},
	} {
		b := m.Marshal()
		if got, want := HeaderLen(b), len(b)-len(m.Data); got != want {
			t.Errorf("credit %v ack %v: HeaderLen = %d, want %d", m.HasCredit, m.HasAck, got, want)
		}
	}
	if got := HeaderLen(make([]byte, HeaderSize-1)); got != HeaderSize {
		t.Errorf("short frame: HeaderLen = %d, want %d", got, HeaderSize)
	}
}

// TestGetFrameAligned: a GetFrame buffer puts the payload of the frame it
// will hold on a PayloadAlign boundary — for each header length, fresh from
// the allocator and recycled, and for a frame the pad pushes past the
// largest class (allocated, laid out alike, dropped by PutBuf).
func TestGetFrameAligned(t *testing.T) {
	for round := 0; round < 2; round++ {
		for _, hdrLen := range []int{HeaderSize, HeaderSize + 4, MaxHeaderSize} {
			for _, n := range []int{0, 1, 64, 100, 4 << 10, 32 << 10, MaxPooled - hdrLen, MaxPooled, 3 * MaxPooled} {
				fb := GetFrame(hdrLen, hdrLen+n)
				if len(fb.B) != 0 || cap(fb.B) < hdrLen+n {
					t.Fatalf("GetFrame(%d, %d): len %d cap %d", hdrLen, hdrLen+n, len(fb.B), cap(fb.B))
				}
				if p := reflect.ValueOf(fb.B).Pointer() + uintptr(hdrLen); p%PayloadAlign != 0 {
					t.Fatalf("GetFrame(%d, %d): payload at %#x", hdrLen, hdrLen+n, p)
				}
				PutBuf(fb)
			}
		}
	}
}

// TestGetFrameRecycles: a GetFrame → PutBuf cycle allocates nothing, and
// PutBuf hands the whole array back to the class it was drawn from — the
// next GetBuf of that class gets it, starting at its first byte — including
// when the pad pushed the frame into the class above its size.
func TestGetFrameRecycles(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, c := range []struct {
		name             string
		hdrLen, frameLen int
		class            int
	}{
		{"64B payload", HeaderSize, HeaderSize + 64, 128},
		{"pad crosses into the next class", HeaderSize, 128, 256},
		{"4KB payload, credit and ack", MaxHeaderSize, MaxHeaderSize + 4<<10, 8 << 10},
		{"32KB payload, credit", HeaderSize + 4, HeaderSize + 4 + 32<<10, 64 << 10},
	} {
		var arr *byte // the array's first octet (reflect would allocate)
		moved := 0
		// AllocsPerRun runs at GOMAXPROCS 1, so the pool has one P to serve
		// from, and nothing allocates, so no GC empties it.
		avg := testing.AllocsPerRun(100, func() {
			fb := GetFrame(c.hdrLen, c.frameLen)
			if cap(fb.arr) != c.class {
				t.Fatalf("%s: drawn from the %d-octet class, want %d", c.name, cap(fb.arr), c.class)
			}
			p := &fb.arr[:1][0]
			if arr == nil {
				arr = p
			}
			if p != arr {
				moved++
			}
			PutBuf(fb)
			again := GetBuf(c.class)
			if &again.B[:1][0] != arr || cap(again.B) != c.class {
				moved++
			}
			PutBuf(again)
		})
		if avg != 0 || moved != 0 {
			t.Errorf("%s: %.2f allocs per cycle, array not handed back %d times", c.name, avg, moved)
		}
	}
}

// BenchmarkCopyOut copies a payload out of a pooled frame into a fresh
// buffer, as RecvInto does: from byte HeaderSize of a GetBuf buffer (4 mod
// 8, the layout before GetFrame) and from a GetFrame frame (64-byte
// aligned). Go 1.24's amd64 memmove copies 2 KB and more with REP MOVSQ
// where the CPU has ERMS and FSRM, and that is where the two differ (about
// 5x on a Xeon at 4 KB); Go 1.21 takes an AVX loop there and shows little.
func BenchmarkCopyOut(b *testing.B) {
	for _, n := range []int{4 << 10, 32 << 10} {
		dst := make([]byte, n)
		for _, layout := range []struct {
			name string
			get  func() *Buf
		}{
			{"offset36", func() *Buf { return GetBuf(HeaderSize + n) }},
			{"GetFrame", func() *Buf { return GetFrame(HeaderSize, HeaderSize+n) }},
		} {
			b.Run(fmt.Sprintf("%s/%dKB", layout.name, n>>10), func(b *testing.B) {
				fb := layout.get()
				defer PutBuf(fb)
				src := fb.B[:HeaderSize+n][HeaderSize:]
				b.SetBytes(int64(n))
				for i := 0; i < b.N; i++ {
					copy(dst, src)
				}
			})
		}
	}
}
