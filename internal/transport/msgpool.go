package transport

import "sync"

// MsgPool recycles the messages of one kind that travel by pointer. The
// ownership rule it serves: a message passed to Send is dead to the
// sender, and the handler that receives it owns it — a forwarding hop
// re-sends the same pointer, a terminal one copies the value out and
// hands the pointer back with Put, or keeps it: a query subtree links
// each report its children send it into its own report, which carries
// them on until the query's root, a straggler check or a teardown puts
// them back. A send that fails puts its message back too. A message nobody puts back (dropped by a fault, stranded in
// a dead mailbox, written to a socket) is simply collected.
//
// The query engine recycles its per-hop bookkeeping through the same
// type: its subtrees, child calls, dispatch rounds and refinement jobs,
// each given back once nothing holds it.
//
// The zero value is ready to use and safe for concurrent use.
type MsgPool[T any] struct {
	p sync.Pool
}

// Get returns a zeroed message, recycled when one is available.
func (p *MsgPool[T]) Get() *T {
	if m, ok := p.p.Get().(*T); ok {
		return m
	}
	return new(T)
}

// Put zeroes m, so the pool keeps no references alive, and recycles it.
// m is dead to the caller afterwards.
func (p *MsgPool[T]) Put(m *T) {
	var zero T
	*m = zero
	p.p.Put(m)
}
