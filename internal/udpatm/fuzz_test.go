package udpatm

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/atm"
	"repro/internal/mts"
	"repro/internal/transport"
	"repro/internal/wire"
)

// maxPDUOctets is the most a reassembly buffer may hold: the longest legal
// CPCS-PDU, in whole cell payloads.
var maxPDUOctets = atm.CellCount(atm.MaxPDU) * atm.PayloadSize

// crc32MSBTable steps the AAL5 CRC-32 register over one octet: entry b is
// octet b shifted through generator 0x04C11DB7 bit by bit, MSB first.
var crc32MSBTable = func() (tab [256]uint32) {
	for i := range tab {
		crc := uint32(i) << 24
		for k := 0; k < 8; k++ {
			if crc&0x80000000 != 0 {
				crc = crc<<1 ^ 0x04C11DB7
			} else {
				crc <<= 1
			}
		}
		tab[i] = crc
	}
	return tab
}()

// crc32MSB is the AAL5 CRC-32 from its definition — all-ones preset, one
// octet per table step, final complement — so refReceive's verdict on a
// frame owes nothing to atm's kernels.
func crc32MSB(p []byte) uint32 {
	crc := ^uint32(0)
	for _, b := range p {
		crc = crc<<8 ^ crc32MSBTable[byte(crc>>24)^b]
	}
	return ^crc
}

// refReceive is what the reader must deliver for a cell stream, written from
// the definitions rather than with atm's reassembler: each cell HEC-checked
// on its own (a corrupt one is skipped), each VC's CPCS-PDU collected until
// its end-of-frame cell or until it would outgrow maxPDUOctets (then
// dropped), each PDU checked against crc32MSB, its length and its pad, then
// chunk-assembled and decoded. It returns the messages, each re-marshalled.
func refReceive(cells []byte) (msgs []string) {
	type vcState struct {
		pdu []byte
		asm wire.Assembler
	}
	vcs := map[atm.VC]*vcState{}
	for ; len(cells) >= atm.CellSize; cells = cells[atm.CellSize:] {
		h, err := atm.DecodeHeader(cells)
		if err != nil {
			continue
		}
		v := vcs[h.VC()]
		if v == nil {
			v = new(vcState)
			vcs[h.VC()] = v
		}
		if len(v.pdu) >= maxPDUOctets {
			v.pdu = v.pdu[:0]
			continue
		}
		v.pdu = append(v.pdu, cells[atm.HeaderSize:atm.CellSize]...)
		if !h.EndOfFrame() {
			continue
		}
		pdu := v.pdu
		v.pdu = v.pdu[:0]
		n := int(binary.BigEndian.Uint16(pdu[len(pdu)-6:]))
		if crc32MSB(pdu[:len(pdu)-4]) != binary.BigEndian.Uint32(pdu[len(pdu)-4:]) ||
			n+8 > len(pdu) || len(pdu)-(n+8) >= atm.PayloadSize {
			continue
		}
		msg, done, err := v.asm.Push(pdu[:n])
		if err != nil || !done {
			continue
		}
		if m, err := wire.Unmarshal(msg); err == nil {
			msgs = append(msgs, string(m.MarshalAppend(nil)))
		}
	}
	return msgs
}

// checkReceiveTrain hands dgram — cut to what readLoop passes on: at most
// its 64 KB buffer, whole cells — to a fresh endpoint's receiveTrain
// 1+repeat%8 times, as that many datagrams, and holds the reader to its
// specification: every message the Inbox delivers decodes within
// wire.MaxFrame, no VC's reassembly buffer holds more than maxPDUOctets after
// any datagram, and the deliveries are exactly refReceive's over the same
// cells, so a frame whose CRC is wrong never delivers. It returns the
// deliveries, each re-marshalled.
func checkReceiveTrain(t *testing.T, dgram []byte, repeat uint8) []string {
	t.Helper()
	dgram = dgram[:min(len(dgram), 64<<10)/atm.CellSize*atm.CellSize]
	rounds := 1 + int(repeat%8)

	rt := mts.New(mts.Config{Name: "fuzz"})
	e := newEndpoint(NewNetwork(), 1, rt, nil)
	var got []string
	e.SetHandler(func(m *transport.Message) {
		b := m.MarshalAppend(nil)
		if _, err := wire.Unmarshal(b); err != nil || m.WireSize() > wire.MaxFrame {
			t.Errorf("delivered a %d-octet message that does not decode again: %v", m.WireSize(), err)
		}
		got = append(got, string(b))
		m.Release()
	})
	// The keeper holds Run open until the last drain; finished and the
	// keeper's state are only touched in the scheduler domain.
	finished := false
	keeper := rt.Create("keeper", mts.PrioDefault, func(th *mts.Thread) {
		if !finished {
			th.Park("keeper")
		}
	})
	done := make(chan struct{})
	go func() { rt.Run(); close(done) }()
	for i := 0; i < rounds; i++ {
		e.receiveTrain(dgram)
		for vc, rx := range e.rx {
			if n := rx.reasm.Buffered(); n > maxPDUOctets {
				t.Fatalf("datagram %d: VC %v's reassembly buffer holds %d octets, bound %d", i, vc, n, maxPDUOctets)
			}
		}
	}
	// Posted after every drain the reader's Puts posted, so it runs last.
	rt.Post(func() {
		finished = true
		rt.Unblock(keeper, false)
	})
	<-done

	if want := refReceive(bytes.Repeat(dgram, rounds)); !slices.Equal(got, want) {
		t.Fatalf("%d datagrams of %d cells: the reader delivered %d messages, the reference %d (or their contents differ)",
			rounds, len(dgram)/atm.CellSize, len(got), len(want))
	}
	return got
}

// trainSeed is one datagram for FuzzReceiveTrain, with how many times it
// arrives (checkReceiveTrain's repeat) and how many messages that delivers.
type trainSeed struct {
	dgram  []byte
	repeat uint8
	msgs   int
}

// trainSeeds are FuzzReceiveTrain's seed corpus: the files in
// testdata/fuzz/FuzzReceiveTrain, one per case. TestReceiveTrainSeeds holds
// each to its delivery count, so the fuzz target's reference is known to
// deliver at all.
func trainSeeds() map[string]trainSeed {
	vc := atm.VCFor(0, 1)
	small := func(seq uint32) []byte { return messageCells(vc, seq, body(byte('a'+seq), 300)) }

	badHEC := small(1)
	badHEC[2*atm.CellSize+4] ^= 0x04 // the third cell's HEC octet
	badCRC := small(1)
	badCRC[len(badCRC)-1] ^= 0x01 // the frame's CRC-32, in its last octet

	var interleaved []byte
	trains := [][]byte{
		messageCells(atm.VCForChan(0, 1, 0), 1, body('x', 300)),
		messageCells(atm.VCForChan(0, 1, 3), 2, body('y', 1000)),
		messageCells(atm.VCForChan(0, 1, 7), 3, body('z', 5000)),
	}
	for len(trains[0])+len(trains[1])+len(trains[2]) > 0 {
		for i, tr := range trains {
			if len(tr) > 0 {
				interleaved = append(interleaved, tr[:atm.CellSize]...)
				trains[i] = tr[atm.CellSize:]
			}
		}
	}

	return map[string]trainSeed{
		"valid-16KB": {dgram: messageCells(vc, 1, body('m', 16<<10)), msgs: 1},
		"bad-hec":    {dgram: append(badHEC, small(2)...), msgs: 1},
		"bad-crc":    {dgram: append(badCRC, small(2)...), msgs: 1},
		"three-vcs":  {dgram: interleaved, msgs: 3},
		// 8 × 200 cells with no end of frame: past maxPDUOctets' 1,366
		// cells, so the runaway frame is cut off.
		"runaway": {dgram: bytes.Repeat(small(1)[:atm.CellSize], 200), repeat: 7},
	}
}

func TestReceiveTrainSeeds(t *testing.T) {
	for name, s := range trainSeeds() {
		if got := checkReceiveTrain(t, s.dgram, s.repeat); len(got) != s.msgs {
			t.Errorf("%s: %d messages delivered, want %d", name, len(got), s.msgs)
		}
	}
}

// FuzzReceiveTrain: arbitrary datagrams, each arriving up to eight times,
// never panic the reader and get exactly the deliveries checkReceiveTrain
// allows.
func FuzzReceiveTrain(f *testing.F) {
	f.Fuzz(func(t *testing.T, dgram []byte, repeat uint8) {
		checkReceiveTrain(t, dgram, repeat)
	})
}
