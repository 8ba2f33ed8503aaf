package atm

import "testing"

func TestSigMessageCodec(t *testing.T) {
	m := SigMessage{
		Type: SigSetup, CallRef: 0x12345678,
		Caller: 3, Called: 7,
		Forward: VC{VPI: 1, VCI: 300}, Backward: VC{VPI: 0, VCI: 301},
	}
	got, err := UnmarshalSig(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("roundtrip: %+v != %+v", got, m)
	}
}

func TestSigCodecRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalSig([]byte{1, 2, 3}); err == nil {
		t.Fatal("short message accepted")
	}
	m := SigMessage{Type: SigSetup}.Marshal()
	m[0] = 99
	if _, err := UnmarshalSig(m); err == nil {
		t.Fatal("bad type accepted")
	}
}
