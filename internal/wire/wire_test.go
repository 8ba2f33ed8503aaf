package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMessageCodecRoundtrip(t *testing.T) {
	m := &Message{
		From: 3, To: 7, FromThread: 1, ToThread: 0, Tag: 42, Seq: 99, ESeq: 7,
		Channel: 12, Data: []byte("payload bytes"),
	}
	got, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.From != 3 || got.To != 7 || got.FromThread != 1 || got.ToThread != 0 ||
		got.Tag != 42 || got.Seq != 99 || got.ESeq != 7 || got.Channel != 12 ||
		!bytes.Equal(got.Data, m.Data) {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
}

// TestChannelRoundtripProperty: the v2 header carries any channel ID
// losslessly, and the default channel encodes as zero.
func TestChannelRoundtripProperty(t *testing.T) {
	f := func(ch uint16) bool {
		m := &Message{From: 1, To: 2, Channel: ChannelID(ch)}
		got, err := Unmarshal(m.Marshal())
		return err == nil && got.Channel == ChannelID(ch)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPiggybackRoundtripProperty: the optional control words (format v3)
// carry any credit/ack combination losslessly, and a frame without them
// encodes at exactly the base (v2) size.
func TestPiggybackRoundtripProperty(t *testing.T) {
	f := func(credit, ack uint32, hasCredit, hasAck bool, payload []byte) bool {
		m := &Message{
			From: 1, To: 2, Tag: 3, Channel: 9,
			Credit: credit, HasCredit: hasCredit,
			Ack: ack, HasAck: hasAck,
			Data: payload,
		}
		if !hasCredit {
			m.Credit = 0
		}
		if !hasAck {
			m.Ack = 0
		}
		b := m.Marshal()
		want := HeaderSize + len(payload)
		if hasCredit {
			want += 4
		}
		if hasAck {
			want += 4
		}
		if len(b) != want {
			return false
		}
		got, err := Unmarshal(b)
		if err != nil {
			return false
		}
		return got.HasCredit == hasCredit && got.HasAck == hasAck &&
			got.Credit == m.Credit && got.Ack == m.Ack &&
			bytes.Equal(got.Data, payload) && got.Channel == 9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPiggybackTruncatedOptionals: a frame whose flags announce control
// words the buffer does not contain must fail as short, not misparse the
// payload as control.
func TestPiggybackTruncatedOptionals(t *testing.T) {
	m := &Message{From: 1, To: 2, Credit: 7, HasCredit: true, Ack: 9, HasAck: true}
	b := m.Marshal()
	for cut := HeaderSize; cut < len(b); cut++ {
		if _, err := Unmarshal(b[:cut]); err != ErrShortMessage {
			t.Fatalf("cut at %d: err = %v, want ErrShortMessage", cut, err)
		}
	}
}

// pooledFrame stages the frame b the way a carrier stages a received one.
func pooledFrame(b []byte) *Buf {
	fb := GetFrame(HeaderLen(b), len(b))
	fb.B = append(fb.B, b...)
	return fb
}

// TestPiggybackPooledAliases: UnmarshalPooled's zero-copy payload alias must
// start after the optional words.
func TestPiggybackPooledAliases(t *testing.T) {
	m := &Message{From: 1, To: 2, Credit: 41, HasCredit: true, Data: []byte("alias me")}
	fb := pooledFrame(m.Marshal())
	got, err := UnmarshalPooled(fb)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Release()
	if got.Credit != 41 || !got.HasCredit || got.HasAck {
		t.Fatalf("piggyback fields: %+v", got)
	}
	fb.B[HeaderSize+4] = 'X'
	if got.Data[0] != 'X' {
		t.Fatal("payload does not alias past the credit word")
	}
}

func TestAppendUint32Roundtrip(t *testing.T) {
	f := func(v uint32) bool {
		b := AppendUint32(nil, v)
		return len(b) == 4 && Uint32(b) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if Uint32([]byte{1, 2}) != 0 {
		t.Fatal("short Uint32 should read 0")
	}
}

func TestSeqNewer(t *testing.T) {
	cases := []struct {
		a, b uint32
		want bool
	}{
		{1, 0, true},
		{0, 1, false},
		{5, 5, false}, // equal is not newer: duplicates are stale
		{0, 0, false},
		{0, ^uint32(0), true},  // wrap: 0 succeeds max
		{^uint32(0), 0, false}, // ...and not vice versa
		{^uint32(0), ^uint32(0) - 3, true},
		{1 << 31, 0, false}, // exactly half the space apart: ambiguous, not newer
		{1<<31 - 1, 0, true},
	}
	for _, c := range cases {
		if got := SeqNewer(c.a, c.b); got != c.want {
			t.Errorf("SeqNewer(%d, %d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	// Antisymmetry over arbitrary distinct pairs: a cumulative counter
	// cannot be both newer and older, so credits can never move backwards.
	f := func(a, b uint32) bool {
		if a == b {
			return !SeqNewer(a, b) && !SeqNewer(b, a)
		}
		return !(SeqNewer(a, b) && SeqNewer(b, a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalAppendPreservesPrefix(t *testing.T) {
	m := &Message{From: 1, To: 2, Data: []byte("abc")}
	prefix := []byte{0xDE, 0xAD}
	out := m.MarshalAppend(append([]byte(nil), prefix...))
	if !bytes.Equal(out[:2], prefix) {
		t.Fatalf("prefix clobbered: % x", out[:4])
	}
	got, err := Unmarshal(out[2:])
	if err != nil || string(got.Data) != "abc" {
		t.Fatalf("decode after prefix: %v %+v", err, got)
	}
}

func TestUnmarshalPooledAliases(t *testing.T) {
	m := &Message{From: 1, To: 2, Data: []byte("alias me")}
	fb := pooledFrame(m.Marshal())
	got, err := UnmarshalPooled(fb)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Release()
	fb.B[HeaderSize] = 'X'
	if got.Data[0] != 'X' {
		t.Fatal("UnmarshalPooled copied instead of aliasing")
	}
	cp, err := Unmarshal(fb.B)
	if err != nil {
		t.Fatal(err)
	}
	fb.B[HeaderSize] = 'Y'
	if cp.Data[0] != 'X' {
		t.Fatal("Unmarshal aliased instead of copying")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(make([]byte, HeaderSize-1)); err != ErrShortMessage {
		t.Fatalf("short: err = %v", err)
	}
	bad := (&Message{From: 1, To: 2}).Marshal()
	bad[0] ^= 0xFF
	if _, err := Unmarshal(bad); err != ErrMagic {
		t.Fatalf("magic: err = %v", err)
	}
}

// TestUndefinedFlagsRejected: a header that sets a flag bit the codec does
// not define (bit 2 once announced per-word channel octets, which would now
// be read as payload) or a non-zero reserved octet fails at every entry
// point, with and without the defined flags beside it.
func TestUndefinedFlagsRejected(t *testing.T) {
	type mut struct {
		name string
		off  int
		bits byte
	}
	muts := []mut{{"reserved octet", 35, 0x01}, {"reserved octet high", 35, 0x80}}
	for bit := 2; bit <= 7; bit++ {
		muts = append(muts, mut{fmt.Sprintf("flag bit %d", bit), 34, 1 << bit})
	}
	entries := []struct {
		name   string
		decode func(b []byte) error
	}{
		{"Unmarshal", func(b []byte) error { _, err := Unmarshal(b); return err }},
		{"UnmarshalPooled", func(b []byte) error {
			fb := pooledFrame(b)
			m, err := UnmarshalPooled(fb)
			if err == nil {
				m.Release()
			} else {
				PutBuf(fb)
			}
			return err
		}},
		{"PeekHeader", func(b []byte) error { _, _, err := PeekHeader(b[:HeaderSize], len(b)); return err }},
	}
	bases := []*Message{
		{From: 1, To: 2, Channel: 3, Data: []byte("payload past the header")},
		{From: 1, To: 2, Channel: 3, Credit: 7, HasCredit: true, Ack: 4, HasAck: true, Data: []byte("payload past the words")},
	}
	for _, base := range bases {
		for _, e := range entries {
			if err := e.decode(base.Marshal()); err != nil {
				t.Fatalf("%s: well-formed frame: %v", e.name, err)
			}
			for _, mu := range muts {
				b := base.Marshal()
				b[mu.off] |= mu.bits
				if err := e.decode(b); err != ErrFlags {
					t.Errorf("%s, %s set (flags %#x): err = %v, want ErrFlags", e.name, mu.name, b[34], err)
				}
			}
		}
	}
}

// FuzzUnmarshal: arbitrary bytes never panic a decoder, and the decoder
// accepts nothing the encoder cannot produce — whatever Unmarshal takes,
// the other entry points take with the same fields, and encoding the result
// gives the input back octet for octet. The pooled decode runs on a frame
// staged as carriers stage one (GetFrame), whose payload starts aligned.
func FuzzUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Unmarshal(b)
		fb := pooledFrame(b)
		pm, perr := UnmarshalPooled(fb)
		from, to, kerr := PeekHeader(b[:min(len(b), HeaderSize)], len(b))
		if perr != err || kerr != err {
			t.Fatalf("Unmarshal: %v, UnmarshalPooled: %v, PeekHeader: %v", err, perr, kerr)
		}
		if err != nil {
			PutBuf(fb)
			return
		}
		if from != m.From || to != m.To {
			t.Fatalf("PeekHeader says %d->%d, Unmarshal %d->%d", from, to, m.From, m.To)
		}
		same := *pm
		same.pooled = nil
		same.Data = append([]byte(nil), pm.Data...)
		if !reflect.DeepEqual(&same, m) {
			t.Fatalf("UnmarshalPooled decoded %+v, Unmarshal %+v", pm, m)
		}
		if p := reflect.ValueOf(pm.Data).Pointer(); p%PayloadAlign != 0 {
			t.Fatalf("GetFrame staged the payload at %#x", p)
		}
		pm.Release()
		if m.WireSize() != len(b) {
			t.Fatalf("WireSize() = %d for a %d-octet frame", m.WireSize(), len(b))
		}
		if out := m.Marshal(); !bytes.Equal(out, b) {
			t.Fatalf("re-encoding differs from the input:\n in  %x\n out %x", b, out)
		}
	})
}

func TestChunkHeaderRoundtrip(t *testing.T) {
	f := func(seq uint32, idx uint16, last bool) bool {
		h := ChunkHeader{Seq: seq, Index: idx, Last: last}
		b := AppendChunkHeader(nil, h)
		got, err := ParseChunkHeader(b)
		return err == nil && got == h && len(b) == ChunkHeaderSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseChunkHeader(make([]byte, ChunkHeaderSize-1)); err != ErrChunkShort {
		t.Fatalf("short chunk: err = %v", err)
	}
}

func TestFragmentExtents(t *testing.T) {
	for _, tc := range []struct{ n, max, want int }{
		{0, 100, 1}, {1, 100, 1}, {100, 100, 1}, {101, 100, 2}, {250, 100, 3},
	} {
		if got := Fragments(tc.n, tc.max); got != tc.want {
			t.Errorf("Fragments(%d,%d) = %d, want %d", tc.n, tc.max, got, tc.want)
		}
	}
	// Extents must tile [0, n) exactly.
	n, max := 250, 100
	off := 0
	for i := 0; i < Fragments(n, max); i++ {
		lo, hi := Extent(n, max, i)
		if lo != off || hi <= lo && n > 0 && i < Fragments(n, max)-1 {
			t.Fatalf("extent %d = [%d,%d), want lo %d", i, lo, hi, off)
		}
		off = hi
	}
	if off != n {
		t.Fatalf("extents cover %d of %d bytes", off, n)
	}
}

// chunkAndCollect fragments wire into chunk frames (each an independent
// copy, as if read off separate AAL5 frames).
func chunkAndCollect(wire []byte, seq uint32, maxPayload int) [][]byte {
	ck := NewChunker(wire, seq, maxPayload)
	var chunks [][]byte
	for {
		c, ok := ck.Next(nil)
		if !ok {
			break
		}
		chunks = append(chunks, c)
	}
	return chunks
}

// TestChunkRoundtripProperty: fragment → reassemble in order reproduces
// the original bytes for arbitrary payloads and chunk sizes.
func TestChunkRoundtripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(10000)
		payload := make([]byte, n)
		rng.Read(payload)
		maxPayload := 1 + rng.Intn(4096)
		seq := rng.Uint32()

		chunks := chunkAndCollect(payload, seq, maxPayload)
		if len(chunks) != Fragments(n, maxPayload) {
			t.Fatalf("trial %d: %d chunks, want %d", trial, len(chunks), Fragments(n, maxPayload))
		}
		var a Assembler
		for i, c := range chunks {
			msg, done, err := a.Push(c)
			if err != nil {
				t.Fatalf("trial %d chunk %d: %v", trial, i, err)
			}
			if done != (i == len(chunks)-1) {
				t.Fatalf("trial %d chunk %d: done = %v", trial, i, done)
			}
			if done && !bytes.Equal(msg, payload) {
				t.Fatalf("trial %d: reassembly mismatch (%d vs %d bytes)", trial, len(msg), len(payload))
			}
		}
	}
}

// TestChunkerRunsMatchWhole: a message given as header ++ payload chunks to
// exactly the frames of its marshalled whole, and Next is the append of the
// Parts view — for every message whose header straddles the first chunk
// boundary, for exact multiples of the chunk payload, and for the empty
// message (one frame, header only).
func TestChunkerRunsMatchWhole(t *testing.T) {
	m := &Message{From: 1, To: 2, Tag: 9, ESeq: 5, Channel: 3, Credit: 7, HasCredit: true, Ack: 4, HasAck: true}
	for _, maxPayload := range []int{1, 7, HeaderSize, m.optSize() + HeaderSize, 100, 8184} {
		for _, n := range []int{0, 1, maxPayload - 1, maxPayload, maxPayload + 1, 3 * maxPayload, 1000} {
			m.Data = make([]byte, n)
			for i := range m.Data {
				m.Data[i] = byte(i*7 + 1)
			}
			whole := m.MarshalAppend(nil)
			head := m.AppendHeader(nil)
			if len(head) > MaxHeaderSize || len(head) != m.WireSize()-n || !bytes.Equal(whole, append(head, m.Data...)) {
				t.Fatalf("AppendHeader: %d octets (max %d), whole %d, data %d", len(head), MaxHeaderSize, len(whole), n)
			}
			want := chunkAndCollect(whole, 77, maxPayload)
			byNext := NewChunkerRuns(head, m.Data, 77, maxPayload)
			byParts := byNext
			if byNext.NumChunks() != len(want) {
				t.Fatalf("max %d data %d: %d chunks, want %d", maxPayload, n, byNext.NumChunks(), len(want))
			}
			for i, w := range want {
				got, ok := byNext.Next(nil)
				hdr, a, b, okParts := byParts.Parts()
				if !ok || !okParts || !bytes.Equal(got, w) || !bytes.Equal(append(append(hdr[:], a...), b...), w) {
					t.Fatalf("max %d data %d chunk %d: runs differ from the whole message's chunk", maxPayload, n, i)
				}
			}
			if _, ok := byNext.Next(nil); ok {
				t.Fatal("Next past the last chunk")
			}
			if _, _, _, ok := byParts.Parts(); ok {
				t.Fatal("Parts past the last chunk")
			}
		}
	}
}

// TestChunkReorderNeverCorrupts: delivering chunks in a shuffled order must
// never complete a message with wrong bytes — the assembler either
// reassembles the exact original (identity shuffle) or drops.
func TestChunkReorderNeverCorrupts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		payload := make([]byte, 1000+rng.Intn(4000))
		rng.Read(payload)
		chunks := chunkAndCollect(payload, rng.Uint32(), 256)
		perm := rng.Perm(len(chunks))
		identity := true
		for i, p := range perm {
			if i != p {
				identity = false
			}
		}
		var a Assembler
		completed := false
		for _, pi := range perm {
			msg, done, _ := a.Push(chunks[pi])
			if done {
				completed = true
				if !bytes.Equal(msg, payload) {
					t.Fatalf("trial %d: corrupted reassembly surfaced", trial)
				}
			}
		}
		if completed && !identity {
			t.Fatalf("trial %d: out-of-order delivery completed a message", trial)
		}
		if identity && !completed {
			t.Fatalf("trial %d: in-order delivery failed to complete", trial)
		}
	}
}

// TestAssemblerInterleavedSequences: a new sequence arriving mid-message
// abandons the stale partial and assembles the new message cleanly.
func TestAssemblerInterleavedSequences(t *testing.T) {
	first := chunkAndCollect(bytes.Repeat([]byte{1}, 600), 1, 256)
	second := chunkAndCollect(bytes.Repeat([]byte{2}, 600), 2, 256)

	var a Assembler
	if _, done, err := a.Push(first[0]); done || err != nil {
		t.Fatalf("head of first: done=%v err=%v", done, err)
	}
	// First message's tail is lost; the second message arrives complete.
	for i, c := range second {
		msg, done, err := a.Push(c)
		if err != nil {
			t.Fatalf("second chunk %d: %v", i, err)
		}
		if i == len(second)-1 {
			if !done || !bytes.Equal(msg, bytes.Repeat([]byte{2}, 600)) {
				t.Fatal("second message did not assemble cleanly")
			}
		}
	}
	if a.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", a.Dropped())
	}
}

// TestAssemblerStrayAndGap covers head-loss and interior-loss signalling.
func TestAssemblerStrayAndGap(t *testing.T) {
	chunks := chunkAndCollect(make([]byte, 600), 5, 256)
	var a Assembler
	if _, _, err := a.Push(chunks[1]); err != ErrChunkStray {
		t.Fatalf("stray err = %v", err)
	}
	if a.Dropped() != 0 {
		t.Fatalf("stray counted as drop: %d", a.Dropped())
	}
	if _, _, err := a.Push(chunks[0]); err != nil {
		t.Fatalf("head: %v", err)
	}
	if _, _, err := a.Push(chunks[2]); err != ErrChunkGap {
		t.Fatalf("gap err = %v", err)
	}
	if a.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", a.Dropped())
	}
}

func TestPoolReuse(t *testing.T) {
	b := GetBuf(1000)
	if cap(b.B) < 1000 || len(b.B) != 0 {
		t.Fatalf("GetBuf(1000): len=%d cap=%d", len(b.B), cap(b.B))
	}
	b.B = append(b.B, 1, 2, 3)
	PutBuf(b)
	b2 := GetBuf(1000)
	if b2 != b {
		t.Skip("pool evicted between Put and Get (GC ran); nothing to assert")
	}
	if len(b2.B) != 0 {
		t.Fatal("recycled buffer not reset to zero length")
	}
}

// TestPutBufDropsOversized: a buffer beyond the largest size class must
// not enter the pool, or a rare huge message would pin its backing array
// behind every subsequent top-class GetBuf.
func TestPutBufDropsOversized(t *testing.T) {
	big := &Buf{B: make([]byte, 0, (1<<16)+1)}
	PutBuf(big)
	got := GetBuf(1 << 16)
	if got == big {
		t.Fatal("oversized buffer was pooled; should have been dropped")
	}
}

// TestCodecSteadyStateAllocs pins the full framing hot path — marshal,
// chunk, reassemble — at zero steady-state allocations per 4 KB message
// when run on pooled buffers.
func TestCodecSteadyStateAllocs(t *testing.T) {
	m := &Message{From: 0, To: 1, Seq: 1, Data: make([]byte, 4096)}
	var a Assembler
	wb := GetBuf(m.WireSize())
	cb := GetBuf(1024)
	defer PutBuf(wb)
	defer PutBuf(cb)
	run := func() {
		wb.B = m.MarshalAppend(wb.B[:0])
		ck := NewChunker(wb.B, m.Seq, 1024-ChunkHeaderSize)
		for {
			chunk, ok := ck.Next(cb.B[:0])
			if !ok {
				break
			}
			if _, _, err := a.Push(chunk); err != nil {
				t.Fatal(err)
			}
		}
		m.Seq++
	}
	run() // warm the assembler's grow-once buffer
	if avg := testing.AllocsPerRun(100, run); avg > 0 {
		t.Fatalf("framing hot path allocates %.1f/op, want 0", avg)
	}
}
