package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// maxPeers bounds the peer IDs a Proc keeps channels to, and so the channel
// table's first level (512 KB of pointers at most), as Mem's byID bounds
// the procs it resolves without a lock. A frame naming a peer outside
// [0, maxPeers) resolves no channel; a local Open, OpenCall or Send to one
// panics.
const maxPeers = 1 << 16

// peerInRange reports whether the channel table can index peer.
func peerInRange(peer ProcID) bool { return uint(peer) < maxPeers }

// mustPeerInRange panics on a peer the channel table cannot index, as an
// out-of-range channel ID does.
func mustPeerInRange(peer ProcID) {
	if !peerInRange(peer) {
		panic(fmt.Sprintf("core: peer %d out of range [0,%d)", peer, maxPeers))
	}
}

// chanRow is one peer's channels, indexed by channel ID.
type chanRow []atomic.Pointer[Channel]

// chanTable is a Proc's channel table, indexed by peer ID and then by channel
// ID. Every send and every arriving frame looks a channel up, foreign
// goroutines included (routeFrame), so a read takes no lock and hashes
// nothing: three atomic pointer loads and two bounds checks. Writers (add,
// remove) are serialized by mu and store into a slot in place; a level that
// is too short is copied into one of at least twice its length and
// republished, so a proc opening N channels copies O(N) slots in all. A
// reader holding a level that was just replaced sees the table as it stood
// an instant earlier, as a sync.Map load racing a store would.
type chanTable struct {
	mu    sync.Mutex
	peers atomic.Pointer[[]atomic.Pointer[chanRow]]
}

// load returns the channel (peer, id), or nil.
func (t *chanTable) load(peer ProcID, id ChannelID) *Channel {
	ps := t.peers.Load()
	if ps == nil || uint(peer) >= uint(len(*ps)) {
		return nil
	}
	row := (*ps)[peer].Load()
	if row == nil || int(id) >= len(*row) {
		return nil
	}
	return (*row)[id].Load()
}

// add publishes c under (c.peer, c.id) unless a channel is there already,
// which it returns instead. c.peer must be in range and c.id at most
// MaxChannelID.
func (t *chanTable) add(c *Channel) (exist *Channel) {
	t.mu.Lock()
	defer t.mu.Unlock()
	slot := t.slotLocked(c.peer, c.id)
	if exist = slot.Load(); exist == nil {
		slot.Store(c)
	}
	return exist
}

// remove takes c out of the table (no-op if its slot holds another).
func (t *chanTable) remove(c *Channel) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if slot := t.slotLocked(c.peer, c.id); slot.Load() == c {
		slot.Store(nil)
	}
}

// slotLocked returns the slot of (peer, id), growing either level to reach
// it. Caller holds mu.
func (t *chanTable) slotLocked(peer ProcID, id ChannelID) *atomic.Pointer[Channel] {
	var ps []atomic.Pointer[chanRow]
	if p := t.peers.Load(); p != nil {
		ps = *p
	}
	if int(peer) >= len(ps) {
		grown := make([]atomic.Pointer[chanRow], min(max(int(peer)+1, 2*len(ps)), maxPeers))
		for i := range ps {
			grown[i].Store(ps[i].Load())
		}
		t.peers.Store(&grown)
		ps = grown
	}
	var row chanRow
	if r := ps[peer].Load(); r != nil {
		row = *r
	}
	if int(id) >= len(row) {
		grown := make(chanRow, min(max(int(id)+1, 2*len(row)), MaxChannelID+1))
		for i := range row {
			grown[i].Store(row[i].Load())
		}
		ps[peer].Store(&grown)
		row = grown
	}
	return &row[id]
}

// each calls fn on every channel in the table in (peer, id) order until fn
// returns false, and reports whether it never did.
func (t *chanTable) each(fn func(*Channel) bool) bool {
	p := t.peers.Load()
	if p == nil {
		return true
	}
	for i := range *p {
		row := (*p)[i].Load()
		if row == nil {
			continue
		}
		for j := range *row {
			if c := (*row)[j].Load(); c != nil && !fn(c) {
				return false
			}
		}
	}
	return true
}
