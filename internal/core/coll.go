package core

import (
	"fmt"

	"repro/internal/trace"
	"repro/internal/wire"
)

// Tree-structured, channel-aware collectives: the logarithmic counterpart
// of the linear Thread.Bcast/Gather/Reduce in core.go. The paper's §3.1
// group-communication classes (1-to-many, many-to-1, many-to-many,
// synchronization) are library code above NCS_send/NCS_recv; once the
// point-to-point path is cheap, the linear compositions dominate scaling —
// a root-collected barrier funnels every arrival through one process and a
// broadcast loop serializes N-1 copies at the root. A Group replaces them
// with precomputed logarithmic topologies:
//
//   - Barrier: a radix-q dissemination barrier — ceil(log_q N) rounds, each
//     process sending and collecting q-1 tokens per round, no root at all.
//     Every process's critical path is ~2·ceil(log_q N) message costs,
//     against the root-collected star where all N-1 arrivals and N-1
//     releases serialize through one process.
//   - Bcast/Gather/Reduce: a q-nomial tree (binomial at the default q = 2),
//     children ordered largest-subtree-first so every informed process is
//     sending at every step of the critical path.
//   - AllToAll: pairwise exchange — an XOR schedule when N is a power of
//     two (each round is a perfect matching), a send-to-(i+r)/
//     receive-from-(i-r) ring schedule otherwise.
//
// Every collective rides a caller-chosen channel (GroupConfig.Channel), so
// a phase-synchronization group can pin its traffic to a high-priority,
// policed VC while bulk halo exchange uses its own class — the per-channel
// QoS story of Figure 5 extended to group communication. Fanout >= N
// degenerates every operation to the *old linear algorithms, preserved
// serial* — root-collected star barrier, one-Send-at-a-time broadcast and
// exchange, exactly the pre-tree code paths — which is how the scale
// benches A/B the rewrite against its baseline on identical plumbing.
// (Tree mode additionally fan-batches its hops: all of a node's copies
// are enqueued before one park, so the carrier sees the burst; that
// batching is part of what the A/B measures.)
//
// Collective messages are ordinary data messages in a reserved high tag
// band (collTagBase), so they obey the channel's flow control, error
// control, and priority like any other traffic; on a lossy carrier the
// group's channel needs an error-control discipline, exactly as
// point-to-point traffic does. Hot paths stay pooled: fan-out enqueues
// every copy before parking once (a service pass batches same-destination
// runs, and sender-side Message structs recycle through the lane
// freelists), barrier tokens and BcastInto payloads land via RecvInto
// semantics so pooled frames recycle, and alloc_test.go pins the
// per-collective budget.

// Collective tags occupy a reserved band far above application tags:
// bit 28 set, the operation in bits 24..27, the round index below. User
// tags this large would collide; none of the repo's workloads come close.
const (
	collTagBase = 1 << 28

	collOpBarrier = 0
	collOpRelease = 1
	collOpBcast   = 2
	collOpGather  = 3
	collOpReduce  = 4
	collOpA2A     = 5
)

// collTag builds the wire tag for one operation round.
func collTag(op, round int) int { return collTagBase | op<<24 | round }

// GroupConfig selects a Group's channel and topology.
type GroupConfig struct {
	// Channel pins every collective of the group to this channel ID toward
	// each member (0 = the default channel). A nonzero channel must already
	// be open to every other member, with compatible disciplines on both
	// ends, before NewGroup.
	Channel ChannelID
	// Fanout is the tree radix q: 0 selects 2 (binomial tree and combining
	// barrier); values >= len(members) degenerate to the serial linear
	// algorithms (root-collected star barrier, one-Send-at-a-time
	// broadcast) — the O(N) baseline the benches measure the trees against.
	Fanout int
}

// Group is a communicator: an agreed, ordered member list with precomputed
// collective topologies, bound to one channel class. Every member process
// constructs its own Group from the *same* member list and configuration;
// the member thread listed for this process is the only thread that may
// call the group's operations (they block only that thread, like every
// NCS primitive).
type Group struct {
	p       *Proc
	members []Addr
	self    int
	chID    ChannelID
	chans   []*Channel // per member index; nil at self
	radix   int
	linear  bool

	// q-nomial tree in relative-rank space (rank = (index - root) mod N):
	// relParent[r] is r's parent, relKids[r] its children largest-subtree-
	// first, relSub[r] its subtree size. Relative ranks make one set of
	// tables serve every root.
	relParent []int
	relKids   [][]int
	relSub    []int

	// Dissemination barrier schedule: absolute member indices to send to
	// and collect from, per round.
	barSend [][]int
	barRecv [][]int

	// AllToAll pairwise schedule: xor selects the perfect-matching XOR
	// schedule (N a power of two); otherwise the ring offsets are computed
	// per round.
	xor bool

	inBarrier bool

	// addrScratch and idxScratch are per-op scratch (member-thread only);
	// packBuf is Gather's concatenation buffer; laneScratch dedupes the
	// lanes a fan-out touched; held keeps Reduce's received
	// messages until the fold is done. All retain capacity across calls so
	// steady-state collectives allocate nothing beyond payloads.
	addrScratch []Addr
	idxScratch  []int
	packBuf     []byte
	laneScratch []*lane
	held        []*wireMessage

	// lane is the group's trace timeline (empty without a Tracer): Comm
	// while a collective holds the member thread, with per-round marks
	// carrying the round index and fan/subtree size.
	lane string
}

// NewGroup builds this process's handle on a communicator. members lists
// the participating (process, thread) addresses in an order every member
// agrees on; exactly one entry must name this process (members span
// distinct processes — sibling threads of one process share memory and do
// not need a network collective). Call after opening cfg.Channel to every
// other member.
func (p *Proc) NewGroup(members []Addr, cfg GroupConfig) *Group {
	n := len(members)
	if n < 1 {
		panic("core: a group needs at least one member")
	}
	// A single-member group (the nprocs=1 degenerate run every MPI-style
	// program has) is legal: every collective is a local no-op.
	self := -1
	for i, a := range members {
		for j := 0; j < i; j++ {
			if members[j].Proc == a.Proc {
				panic(fmt.Sprintf("core: group members must be distinct processes (proc %d listed twice)", a.Proc))
			}
		}
		if a.Proc == p.cfg.ID {
			self = i
		}
	}
	if self < 0 {
		panic(fmt.Sprintf("core(proc %d): not a member of the group", p.cfg.ID))
	}
	radix := cfg.Fanout
	if radix == 0 {
		radix = 2
	}
	if radix < 2 {
		panic("core: group fanout must be >= 2 (or 0 for the default)")
	}
	g := &Group{
		p: p, members: append([]Addr(nil), members...), self: self,
		chID: cfg.Channel, radix: radix, linear: radix >= n,
	}
	g.chans = make([]*Channel, n)
	for i, a := range members {
		if i == self {
			continue
		}
		if cfg.Channel == 0 {
			g.chans[i] = p.DefaultChannel(a.Proc)
		} else if c := p.openChannel(a.Proc, cfg.Channel); c != nil {
			g.chans[i] = c
		} else {
			panic(fmt.Sprintf("core(proc %d): group channel %d not open to member proc %d", p.cfg.ID, cfg.Channel, a.Proc))
		}
	}
	g.buildTree(n)
	if !g.linear {
		g.buildBarrier(n)
	}
	g.xor = n&(n-1) == 0 && !g.linear
	if p.cfg.Tracer != nil {
		g.lane = fmt.Sprintf("%s/coll g%d ch%d", p.cfg.TraceName, p.groupSeq, cfg.Channel)
		p.groupSeq++
	}
	return g
}

// buildTree fills the q-nomial tree tables. Node r's children are
// r + j*q^k for every digit position k below r's lowest nonzero base-q
// digit (all of them for the root) and j = 1..q-1, enumerated highest k
// first — largest subtree first, which keeps every informed node busy on
// the broadcast critical path. With q >= N this is a flat star under
// rank 0: the linear baseline.
func (g *Group) buildTree(n int) {
	q := g.radix
	var pow []int
	for v := 1; v < n; v *= q {
		pow = append(pow, v)
	}
	rounds := len(pow)
	g.relParent = make([]int, n)
	g.relKids = make([][]int, n)
	g.relSub = make([]int, n)
	for r := 0; r < n; r++ {
		// low = position of r's lowest nonzero base-q digit (rounds for 0).
		low := rounds
		if r > 0 {
			low = 0
			v := r
			for v%q == 0 {
				v /= q
				low++
			}
			g.relParent[r] = r - (v%q)*pow[low]
		}
		for k := low - 1; k >= 0; k-- {
			for j := 1; j < q; j++ {
				c := r + j*pow[k]
				if c >= n {
					break
				}
				g.relKids[r] = append(g.relKids[r], c)
			}
		}
	}
	// Subtree sizes, computable children-first by walking ranks downward
	// (every child has a higher rank than its parent).
	for r := n - 1; r >= 0; r-- {
		g.relSub[r] = 1
		for _, c := range g.relKids[r] {
			g.relSub[r] += g.relSub[c]
		}
	}
}

// buildBarrier fills the radix-q dissemination schedule: in round k every
// process sends a token to (self + j*q^k) mod N and collects one from
// (self - j*q^k) mod N, j = 1..q-1. After round k each process has
// transitively heard from every process within q^(k+1)-1 behind it, so
// ceil(log_q N) rounds synchronize everyone with no root — and because no
// round has a funnel, the critical path stays logarithmic even when every
// process arrives simultaneously (a combining tree's root still serializes
// its q arrivals; the star serializes all N-1).
func (g *Group) buildBarrier(n int) {
	q := g.radix
	for step := 1; step < n; step *= q {
		var send, recv []int
		for j := 1; j < q; j++ {
			off := (j * step) % n
			if off == 0 {
				continue
			}
			dup := false
			for _, s := range send {
				if s == (g.self+off)%n {
					dup = true
				}
			}
			if dup {
				continue
			}
			send = append(send, (g.self+off)%n)
			recv = append(recv, (g.self-off+n)%n)
		}
		if len(send) > 0 {
			g.barSend = append(g.barSend, send)
			g.barRecv = append(g.barRecv, recv)
		}
	}
}

// rel converts this process's member index into rank space rooted at root.
func (g *Group) rel(root int) int { return (g.self - root + len(g.members)) % len(g.members) }

// abs converts a rank (rooted at root) back to a member index.
func (g *Group) abs(rank, root int) int { return (rank + root) % len(g.members) }

func (g *Group) checkCaller(t *Thread) {
	if t.proc != g.p || t.idx != g.members[g.self].Thread {
		panic(fmt.Sprintf("core(proc %d): group op called by thread %d, member thread is %d",
			g.p.cfg.ID, t.idx, g.members[g.self].Thread))
	}
}

func (g *Group) checkRoot(root int) {
	if root < 0 || root >= len(g.members) {
		panic(fmt.Sprintf("core: group root %d out of range [0,%d)", root, len(g.members)))
	}
}

// traceRound marks the group lane with one protocol step: operation, round
// index, and the fan/subtree size the step covers. No-op without a Tracer.
func (g *Group) traceRound(op string, round, size int) {
	tr := g.p.cfg.Tracer
	if tr == nil {
		return
	}
	tr.Set(g.lane, trace.Comm)
	tr.Mark(g.lane, fmt.Sprintf("%s r%d n%d", op, round, size))
}

// traceIdle closes the lane's Comm segment at the end of a collective, so
// each operation renders as one segment whose end is the exit instant —
// trace.PhaseSkew over the group lanes of all members measures barrier-exit
// skew directly.
func (g *Group) traceIdle() {
	if tr := g.p.cfg.Tracer; tr != nil {
		tr.Set(g.lane, trace.Idle)
	}
}

// ---------------------------------------------------------------------------
// Fan-out send

// fanSend transmits one message per member index in idxs — the shared
// payload when datas is nil, datas[pos] otherwise — enqueuing every copy
// before parking the caller *once* until the last one has been handed to the
// carrier. Compared with serial Sends this amortizes the park/unpark pair
// across the whole fan and lets the carrier's batch path see the run; the
// payload must stay stable until the wakeup, which is exactly what the single
// park guarantees (every copy is serialized before the last request
// retires). Every copy is staged on its channel's lane (under that lane's
// lock, from the lane freelists), then each touched lane is serviced once —
// so a lane sees its whole share of the fan as one burst. fanLeft is
// scheduler-domain state, decremented by the drains this thread runs inline
// (runDrain), that post behind its park, or by the send system thread. A
// fan unwinds with its typed error (sendErr, or the close sweep's).
func (g *Group) fanSend(t *Thread, tag int, idxs []int, datas [][]byte, shared []byte) {
	if len(idxs) == 0 {
		return
	}
	for _, ki := range idxs {
		if err := g.chans[ki].sendErr(); err != nil {
			panic(err)
		}
	}
	p := g.p
	p.traceThread(t, trace.Idle)
	t.fanLeft = len(idxs)
	lanes := g.laneScratch[:0]
	for pos, ki := range idxs {
		c := g.chans[ki]
		ln := c.lockLane()
		m := ln.getDataMsg()
		m.From = p.cfg.ID
		m.To = c.peer
		m.FromThread = t.idx
		m.ToThread = g.members[ki].Thread
		m.Tag = tag
		m.Channel = c.id
		if datas != nil {
			m.Data = datas[pos]
		} else {
			m.Data = shared
		}
		req := ln.getReq()
		req.m = m
		req.ch = c
		req.fan = t
		ln.pending.push(req)
		ln.mu.Unlock()
		seen := false
		for _, l := range lanes {
			if l == ln {
				seen = true
				break
			}
		}
		if !seen {
			lanes = append(lanes, ln)
		}
	}
	g.laneScratch = lanes
	for _, ln := range lanes {
		ln.mu.Lock()
		ln.leave()
	}
	for t.fanLeft > 0 {
		t.mt.Park("ncs send")
	}
	p.traceThread(t, trace.Compute)
	if err := t.sendErr; err != nil {
		t.sendErr = nil
		panic(err)
	}
	p.sent.Add(int64(len(idxs)))
}

// sendTo is one serial send to member i. A Group op keeps its result list,
// so a failed send unwinds the thread with the typed error, as a doomed
// receive does.
func (g *Group) sendTo(t *Thread, i, tag int, data []byte) {
	if err := g.chans[i].SendTagged(t, tag, g.members[i].Thread, data); err != nil {
		panic(err)
	}
}

// kidIdxs maps the tree children of rank rel (rooted at root) to member
// indices, into the reusable scratch slice.
func (g *Group) kidIdxs(rel, root int) []int {
	kids := g.relKids[rel]
	out := g.idxScratch[:0]
	for _, c := range kids {
		out = append(out, g.abs(c, root))
	}
	g.idxScratch = out
	return out
}

// collectAnyOf receives one message from every member index in idxs (any
// arrival order — a slow subtree delays only itself), invoking fn with the
// member index and message: Thread.collect over the members' addresses. fn
// owns the message (Release it if the payload is copied out). idxs is
// clobbered (it tracks the pending set).
func (g *Group) collectAnyOf(t *Thread, tag int, idxs []int, fn func(member int, m *wireMessage)) {
	set := g.addrScratch[:0]
	for _, i := range idxs {
		set = append(set, g.members[i])
	}
	g.addrScratch = set
	t.collect(recvPattern{ch: g.chID, tag: tag, from: set}, idxs, fn)
}

// recvMember receives the group's next tag message from member i.
func (g *Group) recvMember(t *Thread, tag, i int) *wireMessage {
	m, _ := t.recvAnyOf(recvPattern{ch: g.chID, tag: tag, from: g.members[i : i+1]})
	return m
}

// wireMessage aliases the transport message type for coll.go signatures.
type wireMessage = wire.Message

// sendAll transmits tag plus payload(s) to each member index: fan-batched
// in tree mode (every copy enqueued before one park), one serial Send per
// destination in linear mode — the pre-tree code's exact shape, preserved
// as the A/B baseline.
func (g *Group) sendAll(t *Thread, tag int, idxs []int, datas [][]byte, shared []byte) {
	if !g.linear {
		g.fanSend(t, tag, idxs, datas, shared)
		return
	}
	for pos, ki := range idxs {
		d := shared
		if datas != nil {
			d = datas[pos]
		}
		g.sendTo(t, ki, tag, d)
	}
}

// ---------------------------------------------------------------------------
// Barrier

// Barrier blocks until every member has entered it: the synchronization
// class of §3.1 in logarithmic form — a radix-q dissemination barrier with
// no root (ceil(log_q N) rounds of send/collect tokens), against the
// root-collected star (the Fanout >= N degenerate form) where all N-1
// arrivals and N-1 releases serialize through member 0. Call from the
// member thread on every member; only that thread blocks.
func (g *Group) Barrier(t *Thread) {
	g.checkCaller(t)
	if g.inBarrier {
		panic("core: concurrent Barrier calls on the same group")
	}
	g.inBarrier = true
	if g.linear {
		g.starBarrier(t)
	} else {
		g.dissemBarrier(t)
	}
	g.inBarrier = false
	g.traceIdle()
}

func (g *Group) dissemBarrier(t *Thread) {
	for k, sends := range g.barSend {
		g.traceRound("bar", k, len(sends))
		g.fanSend(t, collTag(collOpBarrier, k), sends, nil, nil)
		recvs := g.barRecv[k]
		if len(recvs) == 1 { // every round at radix 2
			g.recvMember(t, collTag(collOpBarrier, k), recvs[0]).Release()
			continue
		}
		g.idxScratch = append(g.idxScratch[:0], recvs...)
		g.collectAnyOf(t, collTag(collOpBarrier, k), g.idxScratch, func(_ int, m *wireMessage) {
			m.Release()
		})
	}
}

// starBarrier is the linear baseline: the root-collected protocol of the
// original barrier, serial release loop included.
func (g *Group) starBarrier(t *Thread) {
	n := len(g.members)
	if g.self == 0 {
		g.traceRound("bar", 0, n-1)
		all := g.idxScratch[:0]
		for i := 1; i < n; i++ {
			all = append(all, i)
		}
		g.idxScratch = all
		g.collectAnyOf(t, collTag(collOpBarrier, 0), all, func(_ int, m *wireMessage) {
			m.Release()
		})
		g.traceRound("bar", 1, n-1)
		for i := 1; i < n; i++ {
			g.sendTo(t, i, collTag(collOpRelease, 0), nil)
		}
		return
	}
	g.traceRound("bar", 0, 1)
	g.sendTo(t, 0, collTag(collOpBarrier, 0), nil)
	g.recvMember(t, collTag(collOpRelease, 0), 0).Release()
}

// ---------------------------------------------------------------------------
// Broadcast

// Bcast distributes root's payload to every member down the q-nomial tree
// and returns it on every member (root returns data as passed). Non-root
// members receive an owned payload; use BcastInto for the pooled,
// allocation-free variant.
func (g *Group) Bcast(t *Thread, root int, data []byte) []byte {
	g.checkCaller(t)
	g.checkRoot(root)
	rel := g.rel(root)
	if rel != 0 {
		data = g.recvMember(t, collTag(collOpBcast, 0), g.abs(g.relParent[rel], root)).Data
	}
	kids := g.kidIdxs(rel, root)
	g.traceRound("bcast", 0, g.relSub[rel])
	g.sendAll(t, collTag(collOpBcast, 0), kids, nil, data)
	g.traceIdle()
	return data
}

// BcastInto is Bcast delivering into the caller's buffer (the paper's
// receive-into-buffer shape): non-root members receive into buf — the
// pooled frame recycles — then forward buf[:n] down the tree; the root
// sends buf itself. Returns the payload length. Steady-state broadcast
// over a pooled carrier allocates nothing on any member.
func (g *Group) BcastInto(t *Thread, root int, buf []byte) int {
	g.checkCaller(t)
	g.checkRoot(root)
	rel := g.rel(root)
	n := len(buf)
	if rel != 0 {
		pa := g.abs(g.relParent[rel], root)
		n, _ = t.recvIntoOn(buf, g.chID, collTag(collOpBcast, 0), g.members[pa:pa+1])
	}
	kids := g.kidIdxs(rel, root)
	g.traceRound("bcast", 0, g.relSub[rel])
	g.sendAll(t, collTag(collOpBcast, 0), kids, nil, buf[:n])
	g.traceIdle()
	return n
}

// ---------------------------------------------------------------------------
// Gather / Reduce

// Gather collects one payload from every member up the tree and returns
// them indexed by member on the root (nil elsewhere). Interior nodes
// concatenate their subtree's contributions — [member, length, bytes]
// entries framed with the wire codec — into one message per tree edge, so
// the message count stays N-1 while the critical path drops to
// ceil(log_q N) hops; arrivals from child subtrees complete out of order.
func (g *Group) Gather(t *Thread, root int, own []byte) [][]byte {
	g.checkCaller(t)
	g.checkRoot(root)
	rel := g.rel(root)
	buf := g.packBuf[:0]
	buf = wire.AppendUint32(buf, uint32(g.self))
	buf = wire.AppendUint32(buf, uint32(len(own)))
	buf = append(buf, own...)
	kids := g.kidIdxs(rel, root)
	g.traceRound("gather", 0, g.relSub[rel])
	if len(kids) > 0 {
		g.collectAnyOf(t, collTag(collOpGather, 0), kids, func(_ int, m *wireMessage) {
			buf = append(buf, m.Data...)
			m.Release()
		})
	}
	g.packBuf = buf[:0]
	if rel != 0 {
		pa := g.abs(g.relParent[rel], root)
		g.sendTo(t, pa, collTag(collOpGather, 0), buf)
		g.traceIdle()
		return nil
	}
	out := make([][]byte, len(g.members))
	for b := buf; len(b) >= 8; {
		member := int(wire.Uint32(b))
		length := int(wire.Uint32(b[4:]))
		b = b[8:]
		out[member] = append([]byte(nil), b[:length]...)
		b = b[length:]
	}
	g.traceIdle()
	return out
}

// Reduce folds one payload from every member with fn up the tree, seeded
// at each member by own, and returns the reduction on the root (nil
// elsewhere). Children's partials arrive in any order and interior nodes
// fold eagerly, so fn must be associative and commutative (sums, maxima —
// the usual reductions). Message count is N-1 with ceil(log_q N) critical
// path, against the linear Thread.Reduce where the root folds all N-1.
func (g *Group) Reduce(t *Thread, root int, own []byte, fn func(acc, next []byte) []byte) []byte {
	g.checkCaller(t)
	g.checkRoot(root)
	rel := g.rel(root)
	acc := own
	kids := g.kidIdxs(rel, root)
	g.traceRound("reduce", 0, g.relSub[rel])
	// fn may return acc or next, so the partial can alias any received
	// payload until the fold is complete and its result has been used.
	held := g.held[:0]
	if len(kids) > 0 {
		g.collectAnyOf(t, collTag(collOpReduce, 0), kids, func(_ int, m *wireMessage) {
			acc = fn(acc, m.Data)
			held = append(held, m)
		})
	}
	if rel != 0 {
		pa := g.abs(g.relParent[rel], root)
		g.sendTo(t, pa, collTag(collOpReduce, 0), acc)
		acc = nil
	} else {
		acc = ownedResult(acc, own)
	}
	releaseAll(held)
	g.held = held[:0]
	g.traceIdle()
	return acc
}

// ownedResult makes a fold's result safe to return once the received
// messages are released: the caller's own buffer as it is, anything else
// (a received payload, or a slice fn built from one) as one owned copy.
func ownedResult(acc, own []byte) []byte {
	if len(acc) == 0 || (len(own) > 0 && &acc[0] == &own[0]) {
		return acc
	}
	return append([]byte(nil), acc...)
}

// releaseAll recycles the pooled frames of a completed fold and clears the
// slice so it pins nothing.
func releaseAll(held []*wireMessage) {
	for i, m := range held {
		m.Release()
		held[i] = nil
	}
}

// ---------------------------------------------------------------------------
// AllToAll

// AllToAll performs the many-to-many exchange: data[i] goes to member i,
// and the result holds one payload from each member (data[self] is
// returned in place). The tree groups run a pairwise-exchange schedule —
// XOR perfect matchings when N is a power of two, a ring schedule
// otherwise — so every round moves N/2 disjoint pairs concurrently instead
// of posting N-1 sends and draining receives in member order. Linear
// groups keep the old shape (fan out all sends, then collect in order) as
// the baseline.
func (g *Group) AllToAll(t *Thread, data [][]byte) [][]byte {
	g.checkCaller(t)
	n := len(g.members)
	if len(data) != n {
		panic("core: AllToAll group/data length mismatch")
	}
	out := make([][]byte, n)
	out[g.self] = data[g.self]
	if g.linear {
		idxs := g.idxScratch[:0]
		for i := range g.members {
			if i != g.self {
				idxs = append(idxs, i)
			}
		}
		g.idxScratch = idxs
		datas := make([][]byte, 0, n-1)
		for _, i := range idxs {
			datas = append(datas, data[i])
		}
		g.traceRound("a2a", 0, n-1)
		g.sendAll(t, collTag(collOpA2A, 0), idxs, datas, nil)
		for _, i := range idxs {
			out[i] = g.recvMember(t, collTag(collOpA2A, 0), i).Data
		}
		g.traceIdle()
		return out
	}
	for r := 1; r < n; r++ {
		var sendTo, recvFrom int
		if g.xor {
			sendTo = g.self ^ r
			recvFrom = sendTo
		} else {
			sendTo = (g.self + r) % n
			recvFrom = (g.self - r + n) % n
		}
		tag := collTag(collOpA2A, r)
		g.traceRound("a2a", r, 1)
		g.sendTo(t, sendTo, tag, data[sendTo])
		out[recvFrom] = g.recvMember(t, tag, recvFrom).Data
	}
	g.traceIdle()
	return out
}
