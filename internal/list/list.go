// Package list implements the intrusive doubly-linked queue structures the
// paper uses for the NCS_MTS scheduler (Figure 9): a circular ready ring per
// priority level and a doubly-linked blocked queue. The scheduler (package
// mts) now keeps a 16-bit occupancy mask beside the rings, one bit per
// non-empty ring, so a pick reads the mask instead of probing ring heads.
//
// The lists are intrusive: elements embed a Node and are linked in place, so
// moving a thread between the blocked queue and a ready ring is O(1) with no
// allocation, exactly the property the paper cites for choosing doubly linked
// lists ("to speed up search operation during unblocking of threads").
package list

// Node is the embeddable link. The zero value is a detached node.
type Node struct {
	next, prev *Node
	list       *List
	// Value points back at the owning element (typically the struct the
	// Node is embedded in). It is set once by the owner and never touched
	// by this package.
	Value any
}

// InList reports whether the node is currently linked into some list.
func (n *Node) InList() bool { return n.list != nil }

// List is a doubly-linked queue with O(1) push at both ends, O(1) pop at
// the head and O(1) removal of an interior node. It is not safe for
// concurrent use; the MTS scheduler serializes all access.
type List struct {
	root Node // sentinel; root.next = head, root.prev = tail
	size int
}

// New returns an initialized empty list.
func New() *List {
	l := &List{}
	l.Init()
	return l
}

// Init (re)initializes the list to empty. Nodes previously linked are not
// touched; callers must not reuse them without re-pushing.
func (l *List) Init() {
	l.root.next = &l.root
	l.root.prev = &l.root
	l.root.list = l
	l.size = 0
}

func (l *List) lazyInit() {
	if l.root.next == nil {
		l.Init()
	}
}

// Len returns the number of linked nodes.
func (l *List) Len() int { return l.size }

// Empty reports whether the list has no nodes.
func (l *List) Empty() bool { return l.size == 0 }

// Front returns the head node, or nil if the list is empty.
func (l *List) Front() *Node {
	if l.size == 0 {
		return nil
	}
	return l.root.next
}

// Back returns the tail node, or nil if the list is empty.
func (l *List) Back() *Node {
	if l.size == 0 {
		return nil
	}
	return l.root.prev
}

// PushBack appends n at the tail. It panics if n is already in a list: a
// thread must never be on two scheduler queues at once, and silently
// relinking would corrupt both rings.
func (l *List) PushBack(n *Node) {
	l.lazyInit()
	if n.list != nil {
		panic("list: PushBack of node already in a list")
	}
	at := l.root.prev
	n.prev = at
	n.next = &l.root
	at.next = n
	l.root.prev = n
	n.list = l
	l.size++
}

// PushFront inserts n at the head. Panics if n is already in a list.
func (l *List) PushFront(n *Node) {
	l.lazyInit()
	if n.list != nil {
		panic("list: PushFront of node already in a list")
	}
	at := l.root.next
	n.next = at
	n.prev = &l.root
	at.prev = n
	l.root.next = n
	n.list = l
	l.size++
}

// Remove unlinks n from whatever list it is in. It is a no-op for a detached
// node, so callers can unconditionally Remove before re-queueing.
func (n *Node) Remove() {
	l := n.list
	if l == nil {
		return
	}
	n.prev.next = n.next
	n.next.prev = n.prev
	n.next = nil
	n.prev = nil
	n.list = nil
	l.size--
}

// PopFront removes and returns the head node, or nil if empty.
func (l *List) PopFront() *Node {
	n := l.Front()
	if n != nil {
		n.Remove()
	}
	return n
}

// CheckInvariants verifies ring consistency: following next from the
// sentinel visits exactly Len nodes and returns to the sentinel, and
// prev pointers mirror next pointers. It returns false on any violation.
// It exists for property-based tests.
func (l *List) CheckInvariants() bool {
	if l.root.next == nil {
		return l.size == 0
	}
	count := 0
	for n := l.root.next; n != &l.root; n = n.next {
		if n.next.prev != n || n.prev.next != n {
			return false
		}
		if n.list != l {
			return false
		}
		count++
		if count > l.size {
			return false
		}
	}
	return count == l.size
}
