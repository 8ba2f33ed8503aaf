package list

import "testing"

func TestFIFOOrderAndPeek(t *testing.T) {
	var f FIFO[int]
	if f.Size() != 0 {
		t.Fatal("zero value not empty")
	}
	for i := 1; i <= 5; i++ {
		f.Push(i)
	}
	if f.Peek() != 1 {
		t.Fatalf("Peek = %d, want 1", f.Peek())
	}
	if f.Pop() != 1 || f.Peek() != 2 {
		t.Fatal("Peek did not track the head after Pop")
	}
	// Peek must not consume: repeated peeks see the same head.
	if f.Peek() != 2 || f.Peek() != 2 || f.Size() != 4 {
		t.Fatal("Peek consumed an element")
	}
	for want := 2; want <= 5; want++ {
		if got := f.Pop(); got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
	}
	if f.Size() != 0 {
		t.Fatalf("Size = %d after draining", f.Size())
	}
}

func TestFIFOPrependThenPeek(t *testing.T) {
	var f FIFO[string]
	f.Push("c")
	f.Push("d")
	f.Prepend([]string{"a", "b"})
	if f.Peek() != "a" {
		t.Fatalf("Peek = %q after Prepend, want \"a\"", f.Peek())
	}
	for _, want := range []string{"a", "b", "c", "d"} {
		if got := f.Pop(); got != want {
			t.Fatalf("Pop = %q, want %q", got, want)
		}
	}
}

// TestFIFOSteadyRotationBounded rotates a queue that never drains to empty:
// each Push follows a Pop, so the popped prefix must be reclaimed in place or
// the backing array grows with every rotation.
func TestFIFOSteadyRotationBounded(t *testing.T) {
	var f FIFO[int]
	f.Push(0)
	f.Push(1)
	for i := 0; i < 1_000_000; i++ {
		f.Push(f.Pop())
	}
	if f.Size() != 2 || f.Pop() != 0 || f.Pop() != 1 {
		t.Fatal("rotation lost or reordered elements")
	}
	if c := cap(f.q); c > 8 {
		t.Fatalf("cap = %d after a million rotations of 2 elements, want <= 8", c)
	}
	// A deeper steady queue keeps its order across slides.
	var g FIFO[int]
	for i := 0; i < 100; i++ {
		g.Push(i)
	}
	for i := 0; i < 10_000; i++ {
		if got := g.Pop(); got != i {
			t.Fatalf("Pop = %d, want %d", got, i)
		}
		g.Push(i + 100)
	}
	if c := cap(g.q); c > 4*100 {
		t.Fatalf("cap = %d for 100 live elements, want <= 400", c)
	}
}
