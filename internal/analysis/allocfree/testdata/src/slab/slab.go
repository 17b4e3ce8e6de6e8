// Package slab is an allocfree fixture: a generic pool whose audited
// methods are called from another package, where the callee is an
// instantiation of the annotated declaration.
package slab

type Pool[E any] struct {
	entries []E
}

// Push is annotated, so a call to any instantiation of it is audited.
//
//lint:allocfree
func (p *Pool[E]) Push() *E {
	var zero E
	p.entries = append(p.entries, zero)
	return &p.entries[len(p.entries)-1]
}

// Reset carries no annotation.
func (p *Pool[E]) Reset() {
	p.entries = make([]E, 0, 8)
}
