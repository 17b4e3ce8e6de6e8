// Package chord is the fixture twin of squid/internal/chord's one
// error-returning constructor the rpcerr fixture calls. The analyzer
// matches the package by the last element of its path.
package chord

import "errors"

// Space is the ring geometry.
type Space struct{ Bits int }

// NewSpace returns the space of bits-bit identifiers.
func NewSpace(bits int) (Space, error) {
	if bits < 1 || bits > 64 {
		return Space{}, errors.New("chord: identifier space must be 1..64 bits")
	}
	return Space{Bits: bits}, nil
}
