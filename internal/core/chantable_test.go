package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/atm"
	"repro/internal/mts"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestChanTableOrderAndGrowth fills a table in random order across both
// levels' growth, removes half, and holds every lookup and the (peer, id)
// walk to a map kept beside it.
func TestChanTableOrderAndGrowth(t *testing.T) {
	var tab chanTable
	ref := map[[2]int]*Channel{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		peer, id := ProcID(rng.Intn(700)), ChannelID(rng.Intn(MaxChannelID+1))
		c := &Channel{peer: peer, id: id}
		k := [2]int{int(peer), int(id)}
		exist := tab.add(c)
		if want := ref[k]; exist != want {
			t.Fatalf("add (%d, %d) found %p, want %p", peer, id, exist, want)
		}
		if exist == nil {
			ref[k] = c
		}
		if rng.Intn(2) == 0 {
			victim := ref[k]
			tab.remove(&Channel{peer: peer, id: id}) // another incarnation: no-op
			if tab.load(peer, id) != victim {
				t.Fatalf("remove of a stranger took (%d, %d) out", peer, id)
			}
			tab.remove(victim)
			delete(ref, k)
		}
	}
	for peer := ProcID(-2); peer < 800; peer++ {
		for _, id := range []ChannelID{0, 1, 7, MaxChannelID, MaxChannelID + 1, 65535} {
			if got, want := tab.load(peer, id), ref[[2]int{int(peer), int(id)}]; got != want {
				t.Fatalf("load (%d, %d) = %p, want %p", peer, id, got, want)
			}
		}
	}
	var last [2]int
	n := 0
	tab.each(func(c *Channel) bool {
		k := [2]int{int(c.peer), int(c.id)}
		if n > 0 && (k[0] < last[0] || k[0] == last[0] && k[1] <= last[1]) {
			t.Fatalf("walk visits (%d, %d) after (%d, %d)", k[0], k[1], last[0], last[1])
		}
		if ref[k] != c {
			t.Fatalf("walk visits (%d, %d), which the table does not hold", k[0], k[1])
		}
		last = k
		n++
		return true
	})
	if n != len(ref) {
		t.Fatalf("walk visits %d channels, want %d", n, len(ref))
	}
}

// TestOutOfRangePeers sends a proc frames from peers the channel table
// cannot index (−1, 2^16, 2^31, attached to the Mem as bare endpoints) and
// on channel IDs never opened. Each resolves no channel, allocates nothing
// and is counted — stray data, late control — and a SETUP from peer 2^16
// draws REJECT instead of a panic. A local Open, OpenCall or Send to such a
// peer panics with a range message.
func TestOutOfRangePeers(t *testing.T) {
	mem := transport.NewMem()
	procs := defaultPair(t, mem, nil)
	big := int64(1) << 31 // ProcID(1 << 31) does not compile where int is 32 bits
	minus, wide, huge := ProcID(-1), ProcID(maxPeers), ProcID(big)
	frt := mts.New(mts.Config{Name: "forged"})
	var mu sync.Mutex
	var rejects []CallCause
	eps := map[ProcID]*transport.MemEndpoint{}
	for _, id := range []ProcID{minus, wide, huge} {
		ep := mem.Attach(id, frt)
		ep.SetFrameHandler(func(fb *wire.Buf) {
			m, err := wire.UnmarshalPooled(fb)
			if err != nil {
				t.Errorf("frame to a forged peer: %v", err)
				return
			}
			if m.Tag == tagSigReject {
				if _, words, _, err := parseSig(m.Data); err == nil {
					mu.Lock()
					rejects = append(rejects, CallCause(words[0]))
					mu.Unlock()
				}
			}
			m.Release()
		})
		eps[id] = ep
	}
	setup := atm.SigMessage{Type: atm.SigSetup, CallRef: 77, Caller: int32(wide), Called: 1, Forward: atm.VC{VPI: 3}}.Marshal()
	for _, w := range qosNone {
		setup = wire.AppendUint32(setup, w)
	}
	var answered bool
	procs[0].TCreate("evil", mts.PrioDefault, func(th *Thread) {
		send := func(ep transport.Endpoint, m *transport.Message) { ep.Send(nil, m) }
		send(eps[minus], &transport.Message{From: minus, To: 1, Tag: 3, Data: []byte("stray")})
		send(eps[huge], &transport.Message{From: huge, To: 1, Tag: tagFlowAck, Data: wire.AppendUint32(nil, 9)})
		send(eps[wide], &transport.Message{From: wide, To: 1, Tag: tagSigSetup, Data: setup})
		send(procs[0].cfg.Endpoint, &transport.Message{From: 0, To: 1, Channel: 7, Tag: 3, Data: []byte("never opened")})
		send(procs[0].cfg.Endpoint, &transport.Message{From: 0, To: 1, Channel: MaxChannelID + 45, Tag: 3, Data: []byte("past the range")})
		byeAndWait(th)
		answered = true
	})
	procs[1].TCreate("victim", mts.PrioDefault, keepUntilBye)
	runReal(procs)
	if !answered {
		t.Fatal("the honest exchange after the forged frames did not complete")
	}
	victim := procs[1]
	st := victim.Lifecycle()
	if st.StrayData != 3 || st.LateCtrl != 1 || st.SetupsRejected != 1 || st.SetupsAccepted != 0 || st.BadControl != 0 {
		t.Errorf("victim counted %d stray, %d late control, %d/%d setups rejected/accepted, %d bad control; want 3, 1, 1/0, 0",
			st.StrayData, st.LateCtrl, st.SetupsRejected, st.SetupsAccepted, st.BadControl)
	}
	mu.Lock()
	if len(rejects) != 1 || rejects[0] != CauseUnsupported {
		t.Errorf("peer %d heard REJECTs %v, want [%v]", wide, rejects, CauseUnsupported)
	}
	mu.Unlock()
	for _, c := range victim.channelsOrdered() {
		if c.peer != 0 {
			t.Errorf("victim holds a channel %d to peer %d", c.id, c.peer)
		}
	}
	for i, p := range procs {
		if leaks := p.Leaks(); len(leaks) != 0 {
			t.Errorf("proc %d leaks: %v", i, leaks)
		}
	}
	cases := [][2]int{{int(minus), 0}, {int(wide), 0}, {int(huge), 0}, {int(wide), 3}, {0, 7}, {0, MaxChannelID + 45}, {0, 65535}}
	resolve := func() {
		for _, k := range cases {
			if c := victim.frameChannel(ProcID(k[0]), ChannelID(k[1])); c != nil {
				t.Fatalf("frame from peer %d on channel %d resolved channel %p", k[0], k[1], c)
			}
		}
	}
	resolve()
	if !raceEnabled {
		if avg := testing.AllocsPerRun(1000, resolve); avg != 0 {
			t.Errorf("resolving out-of-range frames allocates %v, want 0", avg)
		}
	}
	for name, fn := range map[string]func(){
		"Open":                  func() { victim.Open(wide, ChannelConfig{ID: 1}) },
		"Send (DefaultChannel)": func() { victim.DefaultChannel(minus) },
		"OpenCall":              func() { victim.OpenCall(victim.threads[0], huge, CallConfig{}) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "out of range") {
					t.Errorf("%s to an out-of-range peer: recovered %v, want a range panic", name, r)
				}
			}()
			fn()
		}()
	}
}
