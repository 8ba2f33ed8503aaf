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
	if a.Dropped() != 1 || a.n != 0 {
		t.Fatalf("after the wrap: dropped %d, %d octets buffered; want 1 and 0", a.Dropped(), a.n)
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
	if a.Dropped() != 1 || a.n != 0 || cap(a.fb.B) > 1<<20 {
		t.Fatalf("dropped %d, message %d octets, frame cap %d: want the message abandoned uncopied", a.Dropped(), a.n, cap(a.fb.B))
	}
}

// TestAssemblerPlaceFollowsDelivered: a stream that has completed no message
// is given no place and draws no frame, however a carrier asks; after a
// short message, a message outgrowing it in small chunks, each gathered in
// place, grows the frame with what it holds, not by the room the carrier
// asks for.
func TestAssemblerPlaceFollowsDelivered(t *testing.T) {
	const room, tail = 8 << 10, 55
	var a Assembler
	if p := a.Place(room, tail); p != nil || a.fb != nil {
		t.Fatalf("fresh stream: a place of %d octets, frame drawn %v; want neither", cap(p), a.fb != nil)
	}
	head := AppendChunkHeader(nil, ChunkHeader{Seq: 1})
	if _, _, err := a.Push(append(head, make([]byte, HeaderSize)...)); err != nil {
		t.Fatal(err)
	}
	if p := a.Place(room, tail); p != nil {
		t.Fatalf("stream with a partial message: a place of %d octets; want none", cap(p))
	}
	last := AppendChunkHeader(nil, ChunkHeader{Seq: 1, Index: 1, Last: true})
	if _, done, err := a.Push(last); !done || err != nil {
		t.Fatalf("closing chunk: done=%v err=%v", done, err)
	}

	want := bytes.Repeat([]byte{5}, 2000)
	for i, c := range chunkAndCollect(want, 2, 40) {
		p := a.Place(room, tail)
		if held := max(2*(a.at+a.n), a.at+a.last+tail); cap(a.fb.B) > 2*(PayloadAlign+held) {
			t.Fatalf("chunk %d: frame of %d octets for a %d-octet message so far", i, cap(a.fb.B), a.n)
		}
		at := p[len(p) : len(p)+len(c)]
		copy(at, c)
		msg, done, err := a.Push(at)
		if err != nil || done && !bytes.Equal(msg, want) {
			t.Fatalf("chunk %d: done=%v err=%v", i, done, err)
		}
	}
}

// maxGarbagePushes bounds the chunks one FuzzAssembler input pushes: enough
// to wrap the chunk index twice.
const maxGarbagePushes = 1 << 17

// How a chunk reaches the assembler in FuzzAssembler: handed to Push from
// the caller's buffer; gathered at Place's place, as a carrier lent the
// place gathers it, then pushed; or gathered there by a frame that then
// fails — its chunk header garbled — and never reaches Push.
const (
	byPush = iota
	byPlace
	byFailedFrame
)

// deliver hands chunk to a the way mode says, and returns what Push returned
// (nothing for a failed frame). No place (a stream that has completed no
// message), or one with less spare room than the chunk, is one a carrier's
// frame outgrows: it finishes elsewhere, and the chunk is pushed from there,
// or, for a failed frame, never reaches the assembler.
func deliver(a *Assembler, chunk []byte, mode int) (msg []byte, done bool, err error) {
	if mode == byPush {
		return a.Push(chunk)
	}
	p := a.Place(len(chunk), 0) // the test's frames are the bare chunks
	if cap(p)-len(p) < len(chunk) {
		if mode == byFailedFrame {
			return nil, false, nil
		}
		return a.Push(bytes.Clone(chunk))
	}
	at := p[len(p) : len(p)+len(chunk)]
	copy(at, chunk)
	if mode == byFailedFrame {
		for i := 0; i < min(len(at), ChunkHeaderSize); i++ {
			at[i] ^= 0xA5
		}
		return nil, false, nil
	}
	return a.Push(at)
}

// pushGarbage feeds a the chunks g encodes, checking the assembler's bounds
// after each. g is a run of records: a two-octet repeat count r, a length
// octet n and n octets of chunk. The chunk is pushed r+1 times, its index
// field (when it has one) stepping by one each time, so a short input
// reaches index 65,535 and wraps. The chunk header's reserved octet, which
// the assembler ignores, picks how each copy is delivered.
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
		mode := byPush
		if n >= ChunkHeaderSize {
			mode = int(chunk[7]) % 3
		}
		for r := 0; r <= reps && pushes < maxGarbagePushes; r++ {
			if r > 0 && n >= ChunkHeaderSize {
				binary.BigEndian.PutUint16(chunk[4:], binary.BigEndian.Uint16(chunk[4:])+1)
			}
			pushes++
			msg, done, err := deliver(a, chunk, mode)
			if a.n > MaxFrame || len(msg) > MaxFrame {
				t.Fatalf("assembler holds %d octets, returned %d; bound %d", a.n, len(msg), MaxFrame)
			}
			// An accepted index-0 chunk begins a message: it is all there is.
			if mode != byFailedFrame && err == nil && !done && chunk[4] == 0 && chunk[5] == 0 && a.n != n-ChunkHeaderSize {
				t.Fatalf("index 0 accepted as the continuation of a %d-octet message", a.n-(n-ChunkHeaderSize))
			}
		}
	}
}

// FuzzAssembler: arbitrary chunk sequences, pushed or gathered in place,
// never panic the assembler nor make it buffer past its bounds, and a
// message cut by NewChunkerRuns — any head/body split, any chunk payload —
// comes back byte-identical, right after whatever the garbage left behind,
// with its chunks pushed and gathered in a mix seq picks and frames that
// fail at the place in between.
func FuzzAssembler(f *testing.F) {
	f.Fuzz(func(t *testing.T, garbage, msg []byte, split, maxPayload uint16, seq uint32) {
		var a Assembler
		pushGarbage(t, &a, garbage)
		if a.last == 0 {
			// No place before a completed message: complete one, so the
			// message below can be gathered in place.
			a.Reset()
			warm := AppendChunkHeader(nil, ChunkHeader{Seq: seq - 1, Last: true})
			if _, done, err := a.Push(append(warm, make([]byte, HeaderSize)...)); !done || err != nil {
				t.Fatalf("one-chunk message: done=%v err=%v", done, err)
			}
		}
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
			if (i+int(seq))%3 == 0 {
				deliver(&a, chunk, byFailedFrame)
			}
			got, done, err := deliver(&a, chunk, (i+int(seq>>2))%2)
			if err != nil || done != (i == ck.NumChunks()-1) {
				t.Fatalf("chunk %d of %d: done=%v err=%v", i, ck.NumChunks(), done, err)
			}
			if done {
				if !bytes.Equal(got, msg) {
					t.Fatalf("reassembled %d octets differ from the %d sent", len(got), len(msg))
				}
				if fb := a.Take(); !bytes.Equal(fb.B, msg) {
					t.Fatalf("the frame Take hands over holds %d octets, not the %d-octet message", len(fb.B), len(msg))
				}
				return
			}
		}
	})
}
