// Fixture: inside a ring package, methods on Space are the allowlisted
// modular-arithmetic helpers; free functions get no such exemption.
package chord

// ID is a ring identifier (fixture twin of the real chord.ID; the ringcmp
// fixture imports this package in place of squid/internal/chord).
type ID uint64

// Space is the ring geometry.
type Space struct{ Bits int }

// Less may compare raw identifiers: Space methods implement the modular
// helpers themselves.
func (s Space) Less(a, b ID) bool { return a < b }

func free(a, b ID) bool {
	return a > b // want `ring identifier`
}

// Between reports whether x lies strictly inside the arc (a, b).
func (s Space) Between(x, a, b ID) bool { return a < x && x < b }

// Dist is the clockwise distance from a to b.
func (s Space) Dist(a, b ID) uint64 { return uint64(b - a) }
