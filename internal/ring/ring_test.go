package ring

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPushDrainOrderSingleProducer(t *testing.T) {
	q := New[int]()
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	got := q.Drain()
	if len(got) != 100 {
		t.Fatalf("drained %d items, want 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("item %d = %d, want %d (FIFO violated)", i, v, i)
		}
	}
	if q.Drain() != nil {
		t.Fatal("second drain should be empty")
	}
}

func TestConcurrentProducersDeliverAll(t *testing.T) {
	const producers, perProducer = 8, 1000
	q := New[int]()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(producers)
	for p := 0; p < producers; p++ {
		go func(base int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Push(base + i)
			}
		}(p * perProducer)
	}
	seen := make(map[int]bool)
	lastPer := make(map[int]int) // producer -> last value seen, checks per-producer FIFO
	done := make(chan struct{})
	go func() {
		defer close(done)
		for len(seen) < producers*perProducer {
			if !q.Sleep(stop) {
				return
			}
			for _, v := range q.Drain() {
				if seen[v] {
					t.Errorf("value %d delivered twice", v)
					return
				}
				seen[v] = true
				prod := v / perProducer
				if last, ok := lastPer[prod]; ok && v <= last {
					t.Errorf("producer %d out of order: %d after %d", prod, v, last)
					return
				}
				lastPer[prod] = v
			}
		}
	}()
	wg.Wait()
	<-done
	if len(seen) != producers*perProducer {
		t.Fatalf("consumer saw %d items, want %d", len(seen), producers*perProducer)
	}
}

func TestSleepStop(t *testing.T) {
	q := New[int]()
	stop := make(chan struct{})
	close(stop)
	if q.Sleep(stop) {
		t.Fatal("Sleep on closed stop with empty queue should return false")
	}
	q.Push(1)
	if !q.Sleep(stop) {
		t.Fatal("Sleep with pending items should return true even when stopped")
	}
}

func TestDrainReusesCapacitySteadyState(t *testing.T) {
	q := New[int]()
	// Warm both swap buffers.
	for round := 0; round < 2; round++ {
		for i := 0; i < 64; i++ {
			q.Push(i)
		}
		q.Drain()
	}
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			q.Push(i)
		}
		q.Drain()
	})
	if avg > 0 {
		t.Fatalf("steady-state push/drain allocated %.1f/op, want 0", avg)
	}
}

// claimHarness drives the consumer-role protocol from every side at once:
// producers that push plainly or try to claim, claimants that consume their
// item or hand it to the engine at random, and an engine looping
// Drain/Sleep. The delivery ledger (seen, last) is deliberately plain memory
// written by whoever is the consumer, so under -race a transfer of the role
// that is not a happens-before edge is reported as a data race, and
// inConsumer catches two consumers outright.
type claimHarness struct {
	t          *testing.T
	q          *MPSC[int]
	per        int
	inConsumer atomic.Bool
	seen       []bool
	last       []int
	delivered  atomic.Int64
	engineDone atomic.Bool
	lateClaims atomic.Int64
}

func newClaimHarness(t *testing.T, producers, per int) *claimHarness {
	h := &claimHarness{t: t, q: New[int](), per: per, seen: make([]bool, producers*per), last: make([]int, producers)}
	for i := range h.last {
		h.last[i] = -1
	}
	return h
}

// consume is one turn of the current consumer over the items it holds.
func (h *claimHarness) consume(items func() []int) {
	if !h.inConsumer.CompareAndSwap(false, true) {
		h.t.Error("two consumers at once")
	}
	for _, v := range items() {
		h.record(v)
		h.delivered.Add(1)
	}
	h.inConsumer.Store(false)
}

// record enters v in the ledger: once only, and after everything its
// producer sent before it.
func (h *claimHarness) record(v int) {
	if h.seen[v] {
		h.t.Errorf("value %d delivered twice", v)
	}
	h.seen[v] = true
	if p, i := v/h.per, v%h.per; i <= h.last[p] {
		h.t.Errorf("producer %d out of order: %d after %d", p, i, h.last[p])
	} else {
		h.last[p] = i
	}
}

func (h *claimHarness) engine(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		h.consume(h.q.Drain)
		if !h.q.Sleep(stop) {
			h.engineDone.Store(true)
			return
		}
	}
}

func (h *claimHarness) produce(p int, rng *rand.Rand) {
	for i := 0; i < h.per; i++ {
		v := p*h.per + i
		h.q.mu.Lock()
		if h.q.sleeping && len(h.q.buf) > 0 {
			h.t.Error("ring marked asleep with items pending: nobody will drain them")
		}
		h.q.mu.Unlock()
		if rng.Intn(2) == 0 {
			h.q.Push(v)
			continue
		}
		exited := h.engineDone.Load()
		if !h.q.ClaimOrPush(v) {
			continue
		}
		if exited {
			h.lateClaims.Add(1)
		}
		if rng.Intn(4) == 0 {
			h.q.Push(v) // cannot consume after all: the engine's, via Release
		} else {
			h.consume(func() []int { return []int{v} })
		}
		h.q.Release()
	}
}

// checkStopped asserts the ring's after-stop contract and returns the items
// it kept.
func (h *claimHarness) checkStopped() []int {
	h.t.Helper()
	if n := len(h.q.wake); n != 0 {
		h.t.Errorf("%d wake token(s) left after stop", n)
	}
	if n := h.lateClaims.Load(); n != 0 {
		h.t.Errorf("%d claim(s) granted after the engine stopped", n)
	}
	rest := append([]int(nil), h.q.Drain()...)
	if h.q.ClaimOrPush(-1) {
		h.t.Error("claim granted on a stopped ring")
	}
	if h.q.Sleep(nil) {
		// One item pending (the probe): Sleep reports it, as it always did.
		h.q.Drain()
	}
	if h.q.Sleep(nil) {
		h.t.Error("Sleep on a stopped, empty ring reported work")
	}
	if h.q.ClaimOrPush(-1) {
		h.t.Error("stopped ring re-opened the consumer role after another Sleep")
	}
	return rest
}

func TestClaimProtocolDeliversExactlyOnce(t *testing.T) {
	const producers, per = 8, 4000
	h := newClaimHarness(t, producers, per)
	stop, done := make(chan struct{}), make(chan struct{})
	go h.engine(stop, done)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h.produce(p, rand.New(rand.NewSource(int64(p)+1)))
		}(p)
	}
	wg.Wait()
	// Every claimant's turn has ended, so whatever is still undelivered
	// sits in the ring behind a woken engine.
	for h.delivered.Load() < producers*per {
		runtime.Gosched()
	}
	close(stop)
	<-done
	if rest := h.checkStopped(); len(rest) != 0 {
		t.Errorf("%d items left in the ring after full delivery", len(rest))
	}
}

// TestClaimProtocolStopMidStream closes stop while producers and claimants
// are still running: what the consumers saw plus what the ring kept is every
// item exactly once, each producer's kept items follow its delivered ones,
// and nothing is claimed once the engine has gone.
func TestClaimProtocolStopMidStream(t *testing.T) {
	const producers, per = 8, 4000
	for round := 0; round < 8; round++ {
		h := newClaimHarness(t, producers, per)
		stop, done := make(chan struct{}), make(chan struct{})
		go h.engine(stop, done)
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				h.produce(p, rand.New(rand.NewSource(int64(round*producers+p)+1)))
			}(p)
		}
		for h.delivered.Load() < int64(producers*per/(round+2)) {
			runtime.Gosched()
		}
		close(stop)
		<-done
		wg.Wait()
		for _, v := range h.checkStopped() {
			h.record(v)
		}
		for v, ok := range h.seen {
			if !ok {
				t.Fatalf("round %d: value %d lost", round, v)
			}
		}
	}
}

// sleepingEngine starts an engine that discards what it drains and returns
// once the caller holds the consumer role, claimed from under it.
func sleepingEngine(q *MPSC[int], stop <-chan struct{}, drained *[]int) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			*drained = append(*drained, q.Drain()...)
			if !q.Sleep(stop) {
				return
			}
		}
	}()
	for !q.ClaimOrPush(0) {
		runtime.Gosched()
	}
	return done
}

// TestStopWaitsForClaimant: an engine told to stop while a claimant holds
// the consumer role does not report the stop until that turn has ended, so
// nothing the claimant does as consumer can outlive the engine's exit.
func TestStopWaitsForClaimant(t *testing.T) {
	for _, pending := range []int{0, 1} {
		q := New[int]()
		stop := make(chan struct{})
		var drained []int
		done := sleepingEngine(q, stop, &drained)
		close(stop)
		select {
		case <-done:
			t.Fatal("Sleep reported the stop while a claimant held the consumer role")
		case <-time.After(20 * time.Millisecond):
		}
		for i := 0; i < pending; i++ {
			q.Push(2) // arrives during the turn: stays in the stopped ring
		}
		q.Release()
		<-done
		if len(q.wake) != 0 {
			t.Fatal("wake token left after stop")
		}
		if q.ClaimOrPush(3) {
			t.Fatal("claim granted on a stopped ring")
		}
		if q.Len() != pending+1 {
			t.Fatalf("ring holds %d items, want the %d pushed after the stop", q.Len(), pending+1)
		}
	}
}

// TestReleaseWakesEngineForPending: an item pushed during a claimant's turn
// woke nobody, so Release must — and a turn that ends on an empty ring
// leaves the role claimable again without the engine having run.
func TestReleaseWakesEngineForPending(t *testing.T) {
	q := New[int]()
	stop := make(chan struct{})
	var drained []int
	done := sleepingEngine(q, stop, &drained)
	q.Release()
	if !q.ClaimOrPush(1) {
		t.Fatal("role not claimable after a turn that ended on an empty ring")
	}
	if q.ClaimOrPush(2) {
		t.Fatal("second claim granted while the first claimant is the consumer")
	}
	q.Push(3)
	q.Release() // 2 and 3 are the engine's now
	for q.Len() > 0 {
		runtime.Gosched()
	}
	for !q.ClaimOrPush(4) { // granted once the engine is asleep again
		runtime.Gosched()
	}
	q.Release()
	close(stop)
	<-done
	var got []int
	for _, v := range drained {
		if v == 2 || v == 3 {
			got = append(got, v)
		}
	}
	if len(got) != 2 || got[0] != 2 || got[1] != 3 || len(q.wake) != 0 {
		t.Fatalf("engine drained %v of the pending [2 3]; %d token(s) left", got, len(q.wake))
	}
}
