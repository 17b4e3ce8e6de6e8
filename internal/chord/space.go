// Package chord implements the Chord distributed hash table overlay
// (Stoica et al., SIGCOMM 2001) that Squid uses as its index-to-peer
// mapping (paper Section 3.2): an m-bit identifier ring, finger tables for
// O(log N) routing, successor lists for fault tolerance, and the
// join/departure/failure/stabilization protocol.
//
// The protocol is fully asynchronous and message driven: a Node is a
// transport.Handler whose state is confined to its delivery goroutine.
// External callers inject work with Node.Invoke; applications layered on
// the ring (the Squid engine) receive upcalls through the App interface in
// that same goroutine and may therefore call Node methods directly.
package chord

import "fmt"

// ID is an identifier on the Chord ring. Only the low Space.Bits bits are
// significant.
type ID uint64

// Space describes the identifier ring: identifiers are integers modulo
// 2^Bits. Squid sets Bits to the curve's index width so data indices and
// node identifiers share one space.
type Space struct {
	Bits int
}

// NewSpace returns a Space with the given identifier width (1..64 bits).
func NewSpace(bits int) (Space, error) {
	if bits < 1 || bits > 64 {
		return Space{}, fmt.Errorf("chord: identifier space must be 1..64 bits, got %d", bits)
	}
	return Space{Bits: bits}, nil
}

// MustSpace is NewSpace that panics on error.
func MustSpace(bits int) Space {
	s, err := NewSpace(bits)
	if err != nil {
		panic(err)
	}
	return s
}

// Mask returns the bitmask of valid identifier bits.
func (s Space) Mask() uint64 {
	if s.Bits >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << s.Bits) - 1
}

// Fold truncates v into the identifier space.
func (s Space) Fold(v uint64) ID { return ID(v & s.Mask()) }

// Add returns a + delta modulo the ring size.
func (s Space) Add(a ID, delta uint64) ID { return s.Fold(uint64(a) + delta) }

// Dist returns the clockwise distance from a to b.
func (s Space) Dist(a, b ID) uint64 { return (uint64(b) - uint64(a)) & s.Mask() }

// Between reports whether x lies in the clockwise-open, right-closed arc
// (a, b]. When a == b the arc is the full ring (every x qualifies),
// matching Chord's single-node convention.
func (s Space) Between(x, a, b ID) bool {
	if a == b {
		return true
	}
	d := s.Dist(a, x)
	return d != 0 && d <= s.Dist(a, b)
}

// BetweenOpen reports whether x lies strictly inside the clockwise arc
// (a, b). When a == b the arc is the full ring minus a.
func (s Space) BetweenOpen(x, a, b ID) bool {
	if x == b {
		return false
	}
	if a == b {
		return x != a
	}
	d := s.Dist(a, x)
	return d != 0 && d < s.Dist(a, b)
}

// InArc is Chord's ownership rule: it reports whether key lies in the arc
// (pred, owner] that owner answers for. A zero pred is a node that knows no
// predecessor, and it claims the whole ring.
func (s Space) InArc(key ID, pred, owner NodeRef) bool {
	return pred.IsZero() || s.Between(key, pred.ID, owner.ID)
}
