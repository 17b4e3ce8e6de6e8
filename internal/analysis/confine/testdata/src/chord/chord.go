// Package chord is the fixture twin of squid/internal/chord: the names the
// confinement fixtures use, so a fixture type-checks without the real ring
// and the standard library below it. The analyzer matches the package by
// the last element of its path.
package chord

// ID is a ring identifier.
type ID uint64

// NodeRef names a ring member.
type NodeRef struct {
	ID   ID
	Addr string
}

// FoundMsg answers an owner probe.
type FoundMsg struct{ Owner NodeRef }

// FoundHandler takes a probe's answer on the delivery goroutine.
type FoundHandler interface {
	Found(m FoundMsg, err error)
}

// Node is a ring member.
type Node struct{}

// FindSuccessorTo probes target's owner and hands the answer to h.
func (n *Node) FindSuccessorTo(target ID, trace uint64, h FoundHandler) {}
