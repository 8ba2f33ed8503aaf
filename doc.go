// Package repro is a from-scratch Go reproduction of "A Multithreaded
// Message Passing Environment for ATM LAN/WAN" (Yadav, Reddy, Hariri, Fox;
// NPAC, Syracuse University, 1995): NCS, the NYNET Communication System.
//
// The implementation lives under internal/ — see README.md for a guided
// tour, the package map, and build/test instructions. The heart is
// internal/core: user-level threads plus thread-addressed message passing,
// organized around per-channel QoS — the paper's NCS_init(flow, error)
// configures the default channel, and Proc.Open creates further channels,
// each with its own flow control, error control, and priority, mapped to
// its own ATM virtual circuit in the cell-level carriers. Window flow
// control speaks an absolute-credit protocol (cumulative advertisements
// plus a periodic window sync), so it survives carriers that drop control
// frames as readily as data — no traffic class needs protecting on a
// lossy fabric. Flow and error control gate the head of a channel's own send
// queue in place: the lane scheduler sets a refused channel aside with the
// queue intact until the discipline that refused it (a credit, an ack, the
// rate timer) puts it back, so a gated send waits in one place and a close
// fails every queued send with its typed cause.
//
// The control plane piggybacks on the data plane (wire format v3): a data
// frame carries its channel's pending credit advertisement and ack as
// optional header words, with a short flush timer (1 ms) falling back to
// standalone control frames — cumulative advertisements, one covering every
// delivery since the last — when no reverse data flows on the channel. The send system thread drains bursts and hands
// same-destination runs to carriers through transport.BatchSender (one
// scheduler post on Mem, one writev on real TCP, MTU-bounded cell-train
// datagrams on UDP/ATM — each message serialized once, from where its
// header and payload lie straight into the train that carries it, its AAL5
// CRC folded MSB-first with PCLMULQDQ on amd64, each octet read once
// (internal/atm/crc.go, crc_amd64.s) — which the receiving end reassembles
// a train at a time, straight out of the datagram buffer, HEC-verifying every header
// except one byte-identical to the last it verified on that VC), and
// Thread.RecvInto/Channel.RecvInto — the
// paper's receive-into-buffer call — recycles pooled receive frames so
// steady-state traffic allocates nothing.
//
// Threading model: the send/recv protocol is implemented once, over lanes
// (internal/core/lane.go), and a driver executes them. The paper's
// one-send-one-receive system-thread pair per process is the lanes=1
// configuration — one lane, run by two mts threads — still the default on
// a single-core host. On multicore (or with Config.SendLanes/RecvLanes),
// a proc has min(GOMAXPROCS, 4) lane engines; every channel is
// pinned to one lane for life (peer-hash by default, ChannelConfig.Lane
// to choose), so FIFO within a channel, strict priority among channels
// sharing a lane, and single-owner discipline state hold at any lane
// count. There application sends complete inline; arrivals flow through a
// per-lane MPSC ring (internal/ring) into the engine goroutine, which
// runs the flow/error tiers and posts wakeups back to the cooperative
// scheduler; a short frame that finds its lane's engine asleep and the
// lane free gets that pass from the delivering goroutine instead, one
// goroutine hand-off per message rather than two. The scheduler in real
// mode is no goroutine of its own: the thread that parks dispatches its
// successor, or waits for the post itself (internal/mts). Which driver a
// proc gets follows from its runtime and its carrier: Mem, real TCP and
// udpatm hand over raw frames (transport.FrameCarrier) and get engine
// goroutines at lane counts above one — clock events instead when the
// runtime is virtual (a sim node's, whose clock owns the timers and the
// CPU); SimTCP and SimATM deliver decoded messages, charge and park the
// thread they are handed, and get the system-thread pair. udpatm's reader
// passes a reassembled message on only once its wire header checks out,
// and its Send waits only for its own writer goroutine, which never waits on
// a peer, so its reader may run passes as Mem's senders do. Real TCP
// executes no socket write on a sending thread:
// each connection has a transmit queue and a writer goroutine that puts
// everything queued on the wire in one writev, and Send waits only at the
// queue's high-water mark. Its frames arrive on the connection reader that
// wait ends up depending on (transport.ReaderDelivery), so there the reader
// only decodes, looks the channel up and pushes onto the lane's ring —
// never a pass, a lane lock or a send. The suite runs under both in CI
// (-cpu=1,4 under the race detector), and TestEngineMatrix runs one table
// of scenarios over every driver.
//
// Channels also open dynamically by signaling, the paper's switched
// virtual circuits: Proc.OpenCall runs a blocking SETUP/CONNECT handshake
// through the ATM signaling band (channel 0), the callee admitting or
// refusing each call through Config.Admission (nil admits everything; a
// token bucket meters the setup rate) and handing admitted channels to
// Config.OnAccept; refusals and dead peers surface as *OpenError with a
// typed CallCause after a bounded, jittered retry schedule
// (CallConfig.SetupTimeout/Retries/Backoff). A channel's lifecycle is one
// state and one (state, event) → (actions, next) table: OPENING → OPEN →
// CLOSING → RELEASING on the closing end, OPEN → DRAINING on its peer, both
// to CLOSED. Channel.CloseCall (or Close, which starts the same handshake
// without waiting) drains in-flight data on both ends before
// RELEASE/RELEASE-COMPLETE tear down VC routes, discipline timers, and lane
// state together, sends on a closing channel
// fail uniformly with *ChannelClosedError across all four disciplines (as
// does a receive parked on a channel its own end closes or finalizes),
// and Proc.Lifecycle/Proc.Leaks balance-count every resource so churn
// (the chaos suites run 1000+ open/transfer/close cycles, lossy and
// virtual-time deterministic) must quiesce leak-free.
//
// The failure domain makes peer death a typed, bounded-latency event
// rather than a hang: Config.Heartbeat arms a per-peer detector on the
// channel-0 signaling band (all timers on the runtime's After, so it
// is deterministic under virtual time), and after Misses silent
// intervals the peer is declared dead — every channel to it force-closes
// through the drain machinery, parked sends, blocked receives, and
// in-flight collectives unblock with *PeerDeadError, VC routes release,
// and Proc.Leaks still balances to zero. The detector is the one survival
// path against a peer that crashed after CONNECT; an application survives
// a restart or a healed partition by calling OpenCall again, whose SETUP
// clears the peer's death record on both ends. A malformed signaling frame
// is the sender's fault: a bad SETUP draws REJECT, an unparsable frame is
// dropped and counted, and neither raises on the callee. Carriers expose
// crash/partition/link-flap/blackhole fault injection for chaos testing.
// bench.Faults (`ncsbench -experiment faults`) is the 64-proc kill
// experiment; its modeled detection latency, typed-error coverage and zero
// leaks are held by internal/bench's golden and floors tests.
//
// Group communication is tree-structured and channel-aware: core.Group
// (Proc.NewGroup) precomputes a q-nomial tree and dissemination-barrier
// schedule over an agreed member list and pins every collective —
// Barrier, Bcast/BcastInto, Gather, Reduce, AllToAll — to a chosen
// channel, so a synchronization phase rides a high-priority VC of its own
// while bulk exchange keeps its own class. GroupConfig.Fanout >= N makes
// the tree the flat star under member 0 and the barrier root-collected,
// the A/B baseline; both shapes send through one fan-out, of which a
// single Send is the one-copy case. The p4, MPI and PVM filters are one adapter under three
// argument mappings; it routes MPI's and PVM's collectives through a Group
// cached per member list. Every receive — point-to-point, filter, collective — matches
// through one unexported pattern (thread, process, tag, channel, with -1
// wildcards, or a set of sources) and blocks in one body. Collective fan-out is enqueued as one burst per hop and both
// sender- and receiver-side message structs recycle through pools, so a
// barrier-plus-broadcast round allocates zero bytes steady-state.
//
// internal/bench is the library of modeled experiments — the paper's
// tables and figures and the repo's own collectives, scale, churn and
// faults sweeps — each a result struct and a Render function; cmd/ncsbench
// prints them and TestGoldenModeledOutput holds every one byte for byte on
// each `go test ./...`. bench_test.go in this directory runs the table and
// figure functions as Go benchmarks (modeled_s), the substrate
// micro-benchmarks, and BenchmarkScaleMesh, the lane engines' A/B
// instrument (`go test -cpu 1,2,4 -bench ScaleMesh .`). Wall-clock
// performance is measured in one place, the nested bench/ module
// (`bash bench/run.sh`; metrics declared in BENCHMARK.json).
package repro
