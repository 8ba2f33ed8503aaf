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
	Reset()
	for c := Counter(0); c < numCounters; c++ {
		if got := Read(c); got != 0 {
			t.Errorf("counter %d = %d after Reset", c, got)
		}
	}
}
