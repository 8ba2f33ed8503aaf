package list

import (
	"math/rand"
	"testing"
	"testing/quick"
)

type elem struct {
	id   int
	node Node
}

func newElem(id int) *elem {
	e := &elem{id: id}
	e.node.Value = e
	return e
}

func ids(l *List) []int {
	var out []int
	for n := l.Front(); n != nil && n != &l.root; n = n.next {
		out = append(out, n.Value.(*elem).id)
	}
	return out
}

func TestEmptyList(t *testing.T) {
	l := New()
	if !l.Empty() || l.Len() != 0 {
		t.Fatalf("new list not empty: len=%d", l.Len())
	}
	if l.Front() != nil || l.Back() != nil {
		t.Fatal("Front/Back of empty list should be nil")
	}
	if l.PopFront() != nil {
		t.Fatal("Pop of empty list should be nil")
	}
	if !l.CheckInvariants() {
		t.Fatal("empty list fails invariants")
	}
}

func TestPushPopOrder(t *testing.T) {
	l := New()
	for i := 0; i < 5; i++ {
		l.PushBack(&newElem(i).node)
	}
	want := []int{0, 1, 2, 3, 4}
	got := ids(l)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if l.Front().Value.(*elem).id != 0 || l.Back().Value.(*elem).id != 4 {
		t.Fatal("Front/Back wrong")
	}
	if n := l.PopFront(); n.Value.(*elem).id != 0 {
		t.Fatalf("PopFront = %d, want 0", n.Value.(*elem).id)
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4", l.Len())
	}
}

func TestPushFront(t *testing.T) {
	l := New()
	l.PushBack(&newElem(1).node)
	l.PushFront(&newElem(0).node)
	got := ids(l)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("order = %v, want [0 1]", got)
	}
}

func TestInteriorRemove(t *testing.T) {
	l := New()
	var nodes []*Node
	for i := 0; i < 5; i++ {
		e := newElem(i)
		nodes = append(nodes, &e.node)
		l.PushBack(&e.node)
	}
	nodes[2].Remove()
	got := ids(l)
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("len = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if nodes[2].InList() {
		t.Fatal("removed node still claims membership")
	}
	// Double remove is a no-op.
	nodes[2].Remove()
	if l.Len() != 4 {
		t.Fatal("double remove corrupted length")
	}
}

func TestDoublePushPanics(t *testing.T) {
	l := New()
	e := newElem(1)
	l.PushBack(&e.node)
	defer func() {
		if recover() == nil {
			t.Fatal("PushBack of linked node did not panic")
		}
	}()
	l.PushBack(&e.node)
}

func TestMoveBetweenLists(t *testing.T) {
	a, b := New(), New()
	e := newElem(9)
	a.PushBack(&e.node)
	e.node.Remove()
	b.PushBack(&e.node)
	if a.Len() != 0 || b.Len() != 1 {
		t.Fatalf("move failed: a=%d b=%d", a.Len(), b.Len())
	}
	if !a.CheckInvariants() || !b.CheckInvariants() {
		t.Fatal("invariants broken after move")
	}
}

// TestQuickRandomOps drives a random operation sequence against a reference
// slice model and checks structural invariants throughout.
func TestQuickRandomOps(t *testing.T) {
	f := func(seed int64, opCount uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := New()
		var model []*elem
		pool := make([]*elem, 64)
		for i := range pool {
			pool[i] = newElem(i)
		}
		for op := 0; op < int(opCount); op++ {
			switch rng.Intn(5) {
			case 0: // PushBack a detached element
				if e := pickDetached(rng, pool); e != nil {
					l.PushBack(&e.node)
					model = append(model, e)
				}
			case 1: // PushFront
				if e := pickDetached(rng, pool); e != nil {
					l.PushFront(&e.node)
					model = append([]*elem{e}, model...)
				}
			case 2: // PopFront
				n := l.PopFront()
				if (n == nil) != (len(model) == 0) {
					return false
				}
				if n != nil {
					if n.Value.(*elem) != model[0] {
						return false
					}
					model = model[1:]
				}
			case 3: // Remove random interior
				if len(model) > 0 {
					i := rng.Intn(len(model))
					model[i].node.Remove()
					model = append(model[:i], model[i+1:]...)
				}
			case 4: // Round-robin step, as mts rotates a ready ring
				if n := l.PopFront(); n != nil {
					l.PushBack(n)
				}
				if len(model) > 1 {
					model = append(model[1:], model[0])
				}
			}
			if !l.CheckInvariants() || l.Len() != len(model) {
				return false
			}
		}
		// Final order must match the model.
		got := ids(l)
		for i, e := range model {
			if got[i] != e.id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func pickDetached(rng *rand.Rand, pool []*elem) *elem {
	start := rng.Intn(len(pool))
	for i := 0; i < len(pool); i++ {
		e := pool[(start+i)%len(pool)]
		if !e.node.InList() {
			return e
		}
	}
	return nil
}
