package transport

import (
	"testing"
	"time"

	"repro/internal/wire"
)

// testInbox is an Inbox whose drains are handed to the test instead of a
// runtime: the test plays the dispatcher and runs each when it chooses.
func testInbox(t *testing.T) (*Inbox, chan func()) {
	t.Helper()
	in := new(Inbox)
	in.Init(nil)
	posts := make(chan func(), 16)
	in.post = func(fn func()) { posts <- fn }
	return in, posts
}

// pooledMsgs returns n decoded messages, each owning a pooled frame, tagged
// 1..n. Release zeroes a message, which is how the tests see it happen.
func pooledMsgs(t *testing.T, n int) []*Message {
	t.Helper()
	ms := make([]*Message, n)
	for i := range ms {
		m, err := wire.UnmarshalPooled(marshalFrame(&Message{From: 0, To: 1, Tag: i + 1, Data: []byte("x")}))
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	return ms
}

// onePost takes the drain posted since the last call, failing unless exactly
// one was.
func onePost(t *testing.T, posts chan func()) func() {
	t.Helper()
	if len(posts) != 1 {
		t.Fatalf("%d drains posted, want 1", len(posts))
	}
	return <-posts
}

// TestInboxFIFOOneDrainPerBatch: every Put of a batch after the first finds
// the drain already posted; a drain delivers the whole batch in Put order,
// and the next Put after it posts the next batch's drain.
func TestInboxFIFOOneDrainPerBatch(t *testing.T) {
	in, posts := testInbox(t)
	var got []int
	in.SetHandler(func(m *Message) { got = append(got, m.Tag) })
	ms := pooledMsgs(t, 7)
	for _, batch := range [][]*Message{ms[:3], ms[3:4], ms[4:]} {
		for _, m := range batch {
			if !in.Put(m) {
				t.Fatal("Put on an open inbox refused")
			}
		}
		onePost(t, posts)()
	}
	if len(posts) != 0 {
		t.Fatalf("%d drains posted with nothing queued", len(posts))
	}
	for i, tag := range got {
		if tag != i+1 {
			t.Fatalf("delivered tags %v, want 1..7 in order", got)
		}
	}
	if len(got) != 7 {
		t.Fatalf("delivered %d of 7", len(got))
	}
}

// A message put while its batch's drain runs rides that drain.
func TestInboxPutDuringDrainRidesIt(t *testing.T) {
	in, posts := testInbox(t)
	ms := pooledMsgs(t, 2)
	var got []int
	in.SetHandler(func(m *Message) {
		got = append(got, m.Tag)
		if m.Tag == 1 {
			in.Put(ms[1])
		}
	})
	in.Put(ms[0])
	onePost(t, posts)()
	if len(got) != 2 || len(posts) != 0 {
		t.Fatalf("delivered %v with %d drains left posted, want [1 2] by one drain", got, len(posts))
	}
}

// putAsync runs Put on its own goroutine and reports its result.
func putAsync(in *Inbox, m *Message) chan bool {
	done := make(chan bool, 1)
	go func() { done <- in.Put(m) }()
	return done
}

// mustWait fails if the Put has returned within a short while.
func mustWait(t *testing.T, done chan bool, what string) {
	t.Helper()
	select {
	case <-done:
		t.Fatalf("Put into a full inbox returned %s", what)
	case <-time.After(30 * time.Millisecond):
	}
}

// TestInboxProducerWaitsAtCap: with InboxCap messages queued the next Put
// waits, and the drain that takes the batch lets it in.
func TestInboxProducerWaitsAtCap(t *testing.T) {
	in, posts := testInbox(t)
	delivered := 0
	in.SetHandler(func(m *Message) { delivered++; m.Release() })
	ms := pooledMsgs(t, InboxCap+1)
	for _, m := range ms[:InboxCap] {
		in.Put(m)
	}
	done := putAsync(in, ms[InboxCap])
	mustWait(t, done, "before a drain ran")
	drain := onePost(t, posts)
	drain()
	if ok := <-done; !ok {
		t.Fatal("Put let in by a drain reported the inbox closed")
	}
	// The waiter's message landed after the batch was taken, and posted a
	// drain of its own only if it found none running.
	for len(posts) > 0 {
		(<-posts)()
	}
	if delivered != InboxCap+1 {
		t.Fatalf("delivered %d, want %d", delivered, InboxCap+1)
	}
}

// TestInboxCloseReleases: Close releases a producer waiting at the cap (its
// Put reports false and releases its message) and everything queued; a drain
// posted before Close then delivers nothing, and a later Put is refused.
func TestInboxCloseReleases(t *testing.T) {
	in, posts := testInbox(t)
	in.SetHandler(func(m *Message) { t.Errorf("message %d delivered after Close", m.Tag) })
	ms := pooledMsgs(t, InboxCap+2)
	for _, m := range ms[:InboxCap] {
		in.Put(m)
	}
	done := putAsync(in, ms[InboxCap])
	mustWait(t, done, "before Close")
	in.Close()
	if ok := <-done; ok {
		t.Fatal("Put released by Close reported the message queued")
	}
	onePost(t, posts)()
	if in.Put(ms[InboxCap+1]) {
		t.Fatal("Put after Close reported the message queued")
	}
	for i, m := range ms {
		if m.Tag != 0 || m.Data != nil {
			t.Fatalf("message %d not released", i+1)
		}
	}
	in.Close() // idempotent
}

// TestInboxNilHandlerReleases: a message drained with no handler installed is
// released, not leaked and not a panic.
func TestInboxNilHandlerReleases(t *testing.T) {
	in, posts := testInbox(t)
	m := pooledMsgs(t, 1)[0]
	in.Put(m)
	onePost(t, posts)()
	if m.Tag != 0 || m.Data != nil {
		t.Fatal("message drained without a handler was not released")
	}
}
