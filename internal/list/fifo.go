package list

// FIFO is a slice-backed head-indexed queue: Pop advances the head instead
// of re-slicing, so the backing array is reused once the queue drains
// rather than abandoned to the allocator. It complements the intrusive
// lists in this package for elements that are not link-embeddable (plain
// values, pooled buffers). The zero value is an empty queue. Not safe for
// concurrent use; callers serialize access.
type FIFO[T any] struct {
	q    []T
	head int
}

// Size returns the number of queued elements.
func (f *FIFO[T]) Size() int { return len(f.q) - f.head }

// Push appends v to the tail.
func (f *FIFO[T]) Push(v T) { f.q = append(f.q, v) }

// Pop removes and returns the head element; the vacated slot is zeroed so
// the backing array does not pin popped values. Callers check Size first.
func (f *FIFO[T]) Pop() T {
	var zero T
	v := f.q[f.head]
	f.q[f.head] = zero
	f.head++
	if f.head == len(f.q) {
		f.q = f.q[:0]
		f.head = 0
	}
	return v
}

// Peek returns the head element without removing it. Callers check Size
// first; the lane scheduler uses it to cost and admit a channel's head
// before dequeuing it.
func (f *FIFO[T]) Peek() T { return f.q[f.head] }

// Prepend inserts vs ahead of everything queued (loss-recovery flushes
// that must be processed before entries queued behind them).
func (f *FIFO[T]) Prepend(vs []T) {
	if len(vs) == 0 {
		return
	}
	f.q = append(append(make([]T, 0, len(vs)+f.Size()), vs...), f.q[f.head:]...)
	f.head = 0
}
