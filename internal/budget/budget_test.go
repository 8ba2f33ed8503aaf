package budget

import "testing"

// TestCounters: under the budget tag Add accumulates per counter and Reset
// clears them all; under the default build every Read stays 0.
func TestCounters(t *testing.T) {
	Reset()
	Add(TableOctets, 3)
	Add(TableOctets, 4)
	Add(RecvCopied, 48)
	want := map[Counter]int64{TableOctets: 7, SendCopied: 0, RecvCopied: 48}
	for c, n := range want {
		if !Enabled {
			n = 0
		}
		if got := Read(c); got != n {
			t.Errorf("counter %d = %d, want %d", c, got, n)
		}
	}
	var mu Mutex
	mu.Lock()
	if mu.TryLock() {
		t.Fatal("TryLock of a held Mutex succeeded")
	}
	mu.Unlock()
	if !mu.TryLock() {
		t.Fatal("TryLock of a free Mutex failed")
	}
	mu.Unlock()
	if want := map[bool]int64{true: 2}[Enabled]; Read(Locks) != want {
		t.Errorf("Locks = %d after a Lock and a successful TryLock, want %d", Read(Locks), want)
	}
	Reset()
	for c := Counter(0); c < numCounters; c++ {
		if got := Read(c); got != 0 {
			t.Errorf("counter %d = %d after Reset", c, got)
		}
	}
}
