// Package hotpath is an allocfree fixture shaped like the wire encoder
// and the sfc ...Into family: append-only writers, unannotated helpers
// pulled onto the hot path by the call graph, and documented cold paths.
package hotpath

import (
	"fmt"

	"slab"
)

type enc struct {
	buf []byte
}

// Uvarint appends into the reused buffer: append is exempt.
//
//lint:allocfree
func (e *enc) Uvarint(v uint64) {
	for v >= 0x80 {
		e.buf = append(e.buf, byte(v)|0x80)
		v >>= 7
	}
	e.buf = append(e.buf, byte(v))
}

//lint:allocfree
func (e *enc) Bad(s string) {
	e.buf = make([]byte, 8) // want `make in //lint:allocfree function enc\.Bad`
	_ = []byte(s)           // want `string to \[\]byte/\[\]rune conversion`
	_ = s + "x"             // want `string concatenation`
}

//lint:allocfree
func (e *enc) Encode(v uint64) {
	e.Uvarint(v)
	e.helper(v)
}

// helper carries no annotation but sits on Encode's hot path.
func (e *enc) helper(v uint64) {
	m := map[uint64]bool{} // want `map literal in enc\.helper \(on the //lint:allocfree path from enc\.Encode\)`
	_ = m
	_ = fmt.Sprintf("%d", v) // want `call to fmt\.Sprintf \(outside the allocfree audited set\)`
}

// coldBuild is a documented cold path: the audit stops at its boundary.
//
//lint:allow-allocfree table construction is amortized by a package-level cache
func coldBuild() []uint64 {
	return make([]uint64, 64)
}

//lint:allocfree
func Warm() []uint64 {
	go spin() // want `go statement`
	return coldBuild()
}

func spin() {}

//lint:allocfree
func Closure() func() int {
	f := func() int { return 1 } // want `function literal`
	return f
}

//lint:allocfree
func Allowed() {
	//lint:allow-allocfree scratch grows at most once per doubling
	_ = make([]int, 4)
}

// Generic calls the methods of an instantiated generic type declared in
// another package: the annotated one is audited, the other is not.
//
//lint:allocfree
func Generic(p *slab.Pool[uint64]) {
	*p.Push() = 1
	p.Reset() // want `call to slab\.Reset \(outside the allocfree audited set\)`
}
