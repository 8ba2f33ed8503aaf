package main

// plan.go is the measuring frame every workload runs inside: one repetition
// (fresh fabric, fixed warm-up, timed window with CPU/alloc/GC snapshots at
// its edges), the per-thread op counters, and the median/quartile summary
// over repetitions.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
	"time"
)

// epoch anchors every timestamp of the process (meter, latency samples,
// spans) on one monotonic clock.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

const (
	phaseWarm int32 = iota
	phaseTimed
	phaseDone
)

// edge is what is sampled at each end of the timed window.
type edge struct {
	ns     int64
	cpuUs  float64
	malloc uint64
	numGC  uint32
}

func (e *edge) take() {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		e.cpuUs = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e3
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.malloc, e.numGC = ms.Mallocs, ms.NumGC
	e.ns = nowNs()
}

// sliceLen is the target length of one slice of the timed window. The
// window is measured slice by slice because the recording host changes speed
// from one half second to the next (wlRun.e2e): every slice gets its own
// window-edge snapshot, op count and latency samples.
const sliceLen = 300 * time.Millisecond

// meter drives one repetition's phases. Exactly one thread — the lead, the
// one that times ops — calls step; every other thread reads phase and slice.
type meter struct {
	warm, slice time.Duration // warm-up, and the length of one slice
	slices      int           // in the timed window
	phase       atomic.Int32
	cur         atomic.Int32 // the running slice, while phase is phaseTimed
	next        int64        // lead only: when the current phase or slice ends
	edges       []edge       // slice k ran from edges[k] to edges[k+1]
	rec         *recorder
	counters    []*counter
}

func newMeter(timed, warm time.Duration) *meter {
	n := max(1, int((timed+sliceLen/2)/sliceLen))
	return &meter{warm: warm, slice: timed / time.Duration(n), slices: n, edges: make([]edge, 0, n+1)}
}

// arm starts the warm-up clock; the repetition calls it when set-up is done.
func (m *meter) arm() { m.next = nowNs() + int64(m.warm) }

// step takes the lead's fresh timestamp before each op, moves the phase or
// the slice when its time is up, and reports whether to stop. It returns the
// timestamp to time the op from — re-read when a snapshot was taken.
func (m *meter) step(ts int64) (int64, bool) {
	if ts < m.next {
		return ts, false
	}
	if m.phase.Load() == phaseDone {
		return ts, true
	}
	m.edges = append(m.edges, edge{})
	e := &m.edges[len(m.edges)-1]
	e.take()
	m.next = e.ns + int64(m.slice)
	switch {
	case len(m.edges) == 1:
		if m.rec != nil {
			m.rec.on.Store(true)
		}
		m.phase.Store(phaseTimed)
	case len(m.edges) <= m.slices:
		m.cur.Add(1)
	default:
		m.phase.Store(phaseDone)
		if m.rec != nil {
			m.rec.on.Store(false)
		}
		return ts, true
	}
	return e.ns, false
}

func (m *meter) done() bool { return m.phase.Load() == phaseDone }

// latSamples bounds a counter's latency samples (4 B each); the fastest
// workload completes about a million ops per repetition.
const latSamples = 1 << 21

var latPool [][]uint32 // sample buffers, reused across repetitions

// counter is one thread's tally. ops, bytes and latencies count only inside
// the timed window, slice by slice; all and bad cover the whole repetition.
type counter struct {
	m          *meter
	ops, bytes []int64 // by slice
	all, bad   int64
	allOps     int64    // the part of all that came through op
	lat        []uint32 // ns
	latEnd     []int    // len(lat) at the end of each slice this thread saw end
	latSeen    int32    // slices closed in latEnd
}

// counter registers a tally for one thread. Call while setting up, from the
// goroutine that builds the repetition.
func (m *meter) counter(withLat bool) *counter {
	c := &counter{m: m, ops: make([]int64, m.slices), bytes: make([]int64, m.slices), latEnd: make([]int, m.slices)}
	if withLat {
		if n := len(latPool); n > 0 {
			c.lat, latPool = latPool[n-1][:0], latPool[:n-1]
		} else {
			c.lat = make([]uint32, 0, latSamples)
		}
	}
	m.counters = append(m.counters, c)
	return c
}

// at returns the running slice, after closing the latency segments of the
// slices that ended since this thread last looked. Call in phaseTimed only.
func (c *counter) at() int32 {
	k := c.m.cur.Load()
	for ; c.latSeen < k; c.latSeen++ {
		c.latEnd[c.latSeen] = len(c.lat)
	}
	return k
}

// op records one completed op: its latency (negative: the workload samples
// latency itself), the payload bytes it handed to a receiving application,
// and whether verification passed.
func (c *counter) op(latNs int64, bytes int, ok bool) {
	c.all++
	c.allOps++
	if !ok {
		c.bad++
	}
	c.count(1, int64(bytes))
	if latNs >= 0 {
		c.sample(latNs)
	}
}

// count adds completed ops and delivered bytes to the running slice.
func (c *counter) count(ops, bytes int64) {
	if c.m.phase.Load() == phaseTimed {
		k := c.at()
		c.ops[k] += ops
		c.bytes[k] += bytes
	}
}

// sample records one latency sample inside the timed window.
func (c *counter) sample(latNs int64) {
	if c.m.phase.Load() == phaseTimed && c.lat != nil && len(c.lat) < cap(c.lat) {
		c.at()
		c.lat = append(c.lat, uint32(min(latNs, math.MaxUint32)))
	}
}

// data records verified payload that is not an op of its own (the bulk
// class of qos_mix_mem, the non-root members of a collective).
func (c *counter) data(bytes int, ok bool) {
	c.all++
	if !ok {
		c.bad++
	}
	c.count(0, int64(bytes))
}

// segment returns the latency samples this thread took in slice k.
func (c *counter) segment(k int) []uint32 {
	end := func(i int) int {
		if i < int(c.latSeen) {
			return c.latEnd[i]
		}
		return len(c.lat)
	}
	lo := 0
	if k > 0 {
		lo = end(k - 1)
	}
	return c.lat[lo:end(k)]
}

// window is what was measured between two edges: one slice of the timed
// window, or all of it.
type window struct {
	WallS   float64
	Ops     int64 // ops completed
	Bytes   int64 // payload bytes delivered
	P50Us   float64
	P99Us   float64
	CPUUs   float64
	Mallocs float64
}

func between(a, b *edge) window {
	return window{WallS: float64(b.ns-a.ns) / 1e9, CPUUs: b.cpuUs - a.cpuUs, Mallocs: float64(b.malloc - a.malloc)}
}

// latency sorts the window's samples and takes its median and tail.
func (w *window) latency(lat []uint32) {
	slices.Sort(lat)
	if n := len(lat); n > 0 {
		w.P50Us = float64(lat[n/2]) / 1e3
		w.P99Us = tailUs(lat)
	}
}

// repResult is everything one repetition measured.
type repResult struct {
	window          // the whole timed window
	Slices []window // and its slices
	SetupS float64
	All    int64 // ops and messages attempted over the whole repetition
	AllOps int64 // ops attempted over the whole repetition
	Bad    int64 // of those, how many failed (verification, exception, never completed)
	Err    string

	Stats      CoreStats
	GCCycles   float64
	GCPauseUs  float64
	HeapInuse  float64 // MB at the end of the timed window
	Extra      map[string]float64
	SendCallUs float64 // traced repetitions only
	RecvWaitUs float64
	SelfUs     map[string]float64 // by thread role
}

// rep is one repetition in progress: what a workload function receives.
type rep struct {
	seed    int64
	dry     bool // set-up sample: build everything, run empty thread bodies
	m       *meter
	rec     *recorder
	pattern []byte
	t0      int64
	res     repResult
}

// maxPayload is the largest message any workload sends.
const maxPayload = 32 << 10

func newRep(seed int64, timed, warm time.Duration, traced, dry bool) *rep {
	r := &rep{seed: seed, dry: dry, m: newMeter(timed, warm)}
	if traced {
		r.rec = newRecorder()
		r.m.rec = r.rec
	}
	r.pattern = make([]byte, maxPayload)
	rand.New(rand.NewSource(seed)).Read(r.pattern)
	r.res.Extra = map[string]float64{}
	return r
}

// fabric builds the repetition's fabric; a carrier that cannot be built
// fails the repetition.
func (r *rep) fabric(carrier string, n int, accept func(*Proc, *Chan)) *Fabric {
	f, err := NewFabric(carrier, n, r.rec, accept)
	if err != nil {
		r.res.Err = err.Error()
		return nil
	}
	return f
}

// thread registers a workload thread (an empty one in a set-up sample).
func (r *rep) thread(p *Proc, role string, body func(t *Thread)) {
	if r.dry {
		body = func(*Thread) {}
	}
	p.Thread(role, body)
}

// setupDone closes the set-up interval and starts the warm-up clock.
func (r *rep) setupDone() {
	r.res.SetupS = float64(nowNs()-r.t0) / 1e9
	r.m.arm()
}

// run executes a fully built fabric and folds its counters into the result.
func (r *rep) run(f *Fabric) {
	r.setupDone()
	if err := f.Run(); err != nil {
		r.res.Err = err.Error()
	}
	f.Close()
	r.res.Stats = f.Stats()
}

// finish turns the meter and counters into the repetition's result.
func (r *rep) finish() repResult {
	res, m := &r.res, r.m
	for _, c := range m.counters {
		res.All += c.all
		res.AllOps += c.allOps
		res.Bad += c.bad
	}
	res.Bad += res.Stats.Exceptions
	if res.Err != "" || (!r.dry && !m.done()) {
		// Deadlocked, or the lead never closed the window: nothing the
		// repetition attempted counts as completed.
		if res.Err == "" {
			res.Err = "timed window never closed"
		}
		if res.All == 0 {
			res.All = 1
		}
		res.Bad = res.All
	}
	if last := len(m.edges) - 1; last > 0 {
		res.window = between(&m.edges[0], &m.edges[last])
		res.GCCycles = float64(m.edges[last].numGC - m.edges[0].numGC)
		var lat []uint32
		for k := 0; k < last; k++ {
			w := between(&m.edges[k], &m.edges[k+1])
			lat = lat[:0]
			for _, c := range m.counters {
				w.Ops += c.ops[k]
				w.Bytes += c.bytes[k]
				lat = append(lat, c.segment(k)...)
			}
			w.latency(lat)
			res.Ops += w.Ops
			res.Bytes += w.Bytes
			res.Slices = append(res.Slices, w)
		}
	}
	// The whole window's latencies last: sorting them undoes the segments.
	var lat []uint32
	for _, c := range m.counters {
		if c.lat != nil {
			if lat == nil {
				lat = c.lat // the usual case: one timing thread, no copy
			} else {
				lat = append(lat, c.lat...)
			}
			latPool = append(latPool, c.lat)
		}
	}
	res.latency(lat)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.HeapInuse = float64(ms.HeapInuse) / 1e6
	// PauseNs is a ring of the most recent 256 pauses; the window's own are
	// the last GCCycles of them.
	for i := uint32(0); i < uint32(res.GCCycles) && i < 256; i++ {
		p := float64(ms.PauseNs[(ms.NumGC-i+255)%256]) / 1e3
		res.GCPauseUs = math.Max(res.GCPauseUs, p)
	}
	if r.rec != nil {
		res.SendCallUs = r.rec.p50us(spanSend)
		res.RecvWaitUs = r.rec.p50us(spanRecv)
		res.SelfUs = r.rec.selfUs()
	}
	return *res
}

// runRep runs one repetition of w.
func runRep(w *workload, seed int64, timed, warm time.Duration, traced, dry bool) (repResult, *recorder) {
	runtime.GC()
	r := newRep(seed, timed, warm, traced, dry)
	r.t0 = nowNs()
	w.run(r)
	return r.finish(), r.rec
}

// tailUs is the tail latency of sorted samples, in µs: the p99, or with
// fewer than 1100 of them the highest percentile that still has ten samples
// beyond it (the largest sample when there are not even eleven).
func tailUs(lat []uint32) float64 {
	n := len(lat)
	i := min(n*99/100, n-11)
	if i < n/2 {
		i = n - 1
	}
	return float64(lat[i]) / 1e3
}

// rate is the window's ops per second.
func (w *window) rate() float64 { return float64(w.Ops) / w.WallS }

// e2e computes the end-to-end metrics of one window (setup_s is not among
// them: a repetition sets up once).
func (w *window) e2e() map[string]float64 {
	ops := math.Max(float64(w.Ops), 1)
	return map[string]float64{
		"ops_per_s":     w.rate(),
		"op_p50_us":     w.P50Us,
		"goodput_MBps":  float64(w.Bytes) / 1e6 / w.WallS,
		"cpu_us_per_op": w.CPUUs / ops,
		"allocs_per_op": w.Mallocs / ops,
	}
}

// Stat is one metric's summary over repetitions.
type Stat struct {
	Value  float64   `json:"value"` // what the metric reads: an end-to-end metric's best repetition (wlRun.e2e)
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Reps   []float64 `json:"reps,omitempty"`
}

// summarize reduces a metric's per-repetition values to median and
// quartiles, with the median for its value (the quartiles as Python's statistics.quantiles(n=4) gives them).
func summarize(unit string, vals []float64) Stat {
	s := Stat{Unit: unit, N: len(vals), Reps: vals}
	if len(vals) == 0 {
		return s
	}
	v := slices.Clone(vals)
	slices.Sort(v)
	s.Median, s.Q1, s.Q3 = quantile(v, 0.5), quantile(v, 0.25), quantile(v, 0.75)
	s.Value = s.Median
	return s
}

// quantile is the exclusive-method quantile of sorted v.
func quantile(v []float64, q float64) float64 {
	n := len(v)
	if n == 1 {
		return v[0]
	}
	pos := q*float64(n+1) - 1
	i := int(math.Floor(pos))
	switch {
	case i < 0:
		return v[0]
	case i >= n-1:
		return v[n-1]
	}
	return v[i] + (pos-float64(i))*(v[i+1]-v[i])
}

func median(vals []float64) float64 { return summarize("", vals).Median }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (res *repResult) String() string {
	return fmt.Sprintf("ops=%d wall=%.3fs p50=%.2fµs p99=%.2fµs bad=%d/%d %s",
		res.Ops, res.WallS, res.P50Us, res.P99Us, res.Bad, res.All, res.Err)
}
