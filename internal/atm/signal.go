package atm

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Signaling: a compact Q.2931-flavoured call-control message. The paper's
// NCS sits on "an ATM API"; call setup is the part of that API that turns
// an address into a virtual channel. Hosts exchange these messages end to
// end: internal/core carries them on the control band of a proc's channel
// 0 (see its sigTable), and a connected call then installs the channel's
// switched VC pair in the simulated fabric.

// SigType enumerates call-control messages.
type SigType uint8

// Call-control message types.
const (
	SigSetup SigType = iota + 1
	SigConnect
	SigRelease
	SigReleaseComplete
	SigReject
)

func (t SigType) String() string {
	switch t {
	case SigSetup:
		return "SETUP"
	case SigConnect:
		return "CONNECT"
	case SigRelease:
		return "RELEASE"
	case SigReleaseComplete:
		return "RELEASE-COMPLETE"
	case SigReject:
		return "REJECT"
	default:
		return fmt.Sprintf("sig(%d)", uint8(t))
	}
}

// SigMessage is one call-control message.
type SigMessage struct {
	Type    SigType
	CallRef uint32
	// Caller and Called are host addresses (the fabric's host indices).
	Caller, Called int32
	// Forward and Backward are the VCs assigned by the network for the
	// caller->called and called->caller directions (valid in CONNECT, and
	// in SETUP as delivered to the called party).
	Forward, Backward VC
}

// sigWireSize is the fixed encoding length.
const sigWireSize = 1 + 4 + 4 + 4 + 4 + 4

// SigWireSize is the fixed encoding length of a marshalled SigMessage,
// exported for consumers that frame signaling messages alongside other
// payload words.
const SigWireSize = sigWireSize

// ErrSigWire reports an undecodable signaling message.
var ErrSigWire = errors.New("atm: bad signaling message")

func putVC(b []byte, vc VC) {
	b[0] = vc.VPI
	binary.BigEndian.PutUint16(b[1:], vc.VCI)
}

func getVC(b []byte) VC {
	return VC{VPI: b[0], VCI: binary.BigEndian.Uint16(b[1:])}
}

// Marshal encodes the message.
func (m SigMessage) Marshal() []byte {
	out := make([]byte, sigWireSize)
	out[0] = byte(m.Type)
	binary.BigEndian.PutUint32(out[1:], m.CallRef)
	binary.BigEndian.PutUint32(out[5:], uint32(m.Caller))
	binary.BigEndian.PutUint32(out[9:], uint32(m.Called))
	putVC(out[13:], m.Forward)
	putVC(out[17:], m.Backward)
	return out
}

// UnmarshalSig decodes a signaling message.
func UnmarshalSig(b []byte) (SigMessage, error) {
	var m SigMessage
	if len(b) != sigWireSize {
		return m, ErrSigWire
	}
	m.Type = SigType(b[0])
	if m.Type < SigSetup || m.Type > SigReject {
		return m, ErrSigWire
	}
	m.CallRef = binary.BigEndian.Uint32(b[1:])
	m.Caller = int32(binary.BigEndian.Uint32(b[5:]))
	m.Called = int32(binary.BigEndian.Uint32(b[9:]))
	m.Forward = getVC(b[13:])
	m.Backward = getVC(b[17:])
	return m, nil
}
