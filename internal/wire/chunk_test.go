package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestAssemblerIndexWrap: a message has at most 65,536 chunks. The chunk
// after index 65,535 of one sequence — index 0 again, once the 16-bit field
// wraps — is a gap that abandons the message, not its continuation, so a
// stream of chunks that never sets Last cannot grow the buffer without end.
func TestAssemblerIndexWrap(t *testing.T) {
	var a Assembler
	chunk := make([]byte, ChunkHeaderSize+1)
	for i := 0; i < 1<<16; i++ {
		AppendChunkHeader(chunk[:0], ChunkHeader{Seq: 3, Index: uint16(i)})
		if _, done, err := a.Push(chunk); done || err != nil {
			t.Fatalf("chunk %d: done=%v err=%v", i, done, err)
		}
	}
	AppendChunkHeader(chunk[:0], ChunkHeader{Seq: 3, Index: 0})
	if _, done, err := a.Push(chunk); done || err != ErrChunkGap {
		t.Fatalf("wrapped index: done=%v err=%v, want ErrChunkGap", done, err)
	}
	if a.Dropped() != 1 || len(a.buf) != 0 {
		t.Fatalf("after the wrap: dropped %d, %d octets buffered; want 1 and 0", a.Dropped(), len(a.buf))
	}
	// The stream goes on: the next message assembles.
	want := bytes.Repeat([]byte{7}, 300)
	for i, c := range chunkAndCollect(want, 4, 100) {
		msg, done, err := a.Push(c)
		if err != nil || done != (i == 2) || done && !bytes.Equal(msg, want) {
			t.Fatalf("next message, chunk %d: done=%v err=%v", i, done, err)
		}
	}
}

// TestAssemblerSizeBound: a chunk that would take the message under
// assembly past MaxFrame abandons it with ErrChunkLarge, before copying a
// byte of it.
func TestAssemblerSizeBound(t *testing.T) {
	var a Assembler
	head := AppendChunkHeader(nil, ChunkHeader{Seq: 1, Index: 0})
	head = append(head, make([]byte, 1000)...)
	if _, done, err := a.Push(head); done || err != nil {
		t.Fatalf("head: done=%v err=%v", done, err)
	}
	// The body is never written, so its pages are never touched.
	big := make([]byte, ChunkHeaderSize+MaxFrame-1000+1)
	AppendChunkHeader(big[:0], ChunkHeader{Seq: 1, Index: 1, Last: true})
	if _, done, err := a.Push(big); done || err != ErrChunkLarge {
		t.Fatalf("oversized message: done=%v err=%v, want ErrChunkLarge", done, err)
	}
	if a.Dropped() != 1 || len(a.buf) != 0 || cap(a.buf) > 1<<20 {
		t.Fatalf("dropped %d, buffer len %d cap %d: want the message abandoned uncopied", a.Dropped(), len(a.buf), cap(a.buf))
	}
}

// maxGarbagePushes bounds the chunks one FuzzAssembler input pushes: enough
// to wrap the chunk index twice.
const maxGarbagePushes = 1 << 17

// pushGarbage feeds a the chunks g encodes, checking the assembler's bounds
// after each. g is a run of records: a two-octet repeat count r, a length
// octet n and n octets of chunk. The chunk is pushed r+1 times, its index
// field (when it has one) stepping by one each time, so a short input
// reaches index 65,535 and wraps.
func pushGarbage(t *testing.T, a *Assembler, g []byte) {
	pushes := 0
	var scratch [255]byte
	for len(g) >= 3 {
		reps, n := int(binary.BigEndian.Uint16(g)), int(g[2])
		g = g[3:]
		n = min(n, len(g))
		chunk := scratch[:n]
		copy(chunk, g[:n])
		g = g[n:]
		for r := 0; r <= reps && pushes < maxGarbagePushes; r++ {
			if r > 0 && n >= ChunkHeaderSize {
				binary.BigEndian.PutUint16(chunk[4:], binary.BigEndian.Uint16(chunk[4:])+1)
			}
			pushes++
			msg, done, err := a.Push(chunk)
			if len(a.buf) > MaxFrame || len(msg) > MaxFrame {
				t.Fatalf("assembler holds %d octets, returned %d; bound %d", len(a.buf), len(msg), MaxFrame)
			}
			// An accepted index-0 chunk begins a message: it is all there is.
			if err == nil && !done && chunk[4] == 0 && chunk[5] == 0 && len(a.buf) != n-ChunkHeaderSize {
				t.Fatalf("index 0 accepted as the continuation of a %d-octet message", len(a.buf)-(n-ChunkHeaderSize))
			}
		}
	}
}

// FuzzAssembler: arbitrary chunk sequences never panic the assembler nor
// make it buffer past its bounds, and a message cut by NewChunkerRuns — any
// head/body split, any chunk payload — and pushed in order comes back
// byte-identical, right after whatever the garbage left behind.
func FuzzAssembler(f *testing.F) {
	f.Fuzz(func(t *testing.T, garbage, msg []byte, split, maxPayload uint16, seq uint32) {
		var a Assembler
		pushGarbage(t, &a, garbage)
		if a.active && a.seq == seq {
			seq++ // the same sequence would continue the garbage's message
		}
		at := min(int(split), len(msg))
		ck := NewChunkerRuns(msg[:at], msg[at:], seq, 1+int(maxPayload))
		if ck.NumChunks() > 1<<16 {
			return // more chunks than the index numbers
		}
		for i := 0; ; i++ {
			chunk, ok := ck.Next(nil)
			if !ok {
				t.Fatal("the last chunk did not complete the message")
			}
			got, done, err := a.Push(chunk)
			if err != nil || done != (i == ck.NumChunks()-1) {
				t.Fatalf("chunk %d of %d: done=%v err=%v", i, ck.NumChunks(), done, err)
			}
			if done {
				if !bytes.Equal(got, msg) {
					t.Fatalf("reassembled %d octets differ from the %d sent", len(got), len(msg))
				}
				return
			}
		}
	})
}
