// Package foundhandler is a confinement fixture for handlers passed as
// interface values: a round handed to chord's FindSuccessorTo as a
// FoundHandler is called back on the delivery goroutine, so its Found
// method is reachable from the entrypoint that passed it, exactly as a
// bound method value r.found would be.
package foundhandler

import "chord"

// Engine's state is touched only by the delivery goroutine.
//
//lint:confine delivery
type Engine struct {
	node  *chord.Node
	cache []chord.NodeRef
}

// round is one probe in flight, its own lookup handler — the shape of
// squid's dispatch round.
type round struct {
	e *Engine
}

//lint:entry delivery
func (e *Engine) Dispatch(target chord.ID) {
	r := &round{e: e}
	e.node.FindSuccessorTo(target, 0, r)
}

// Found is reachable from Dispatch, which passed its receiver as a
// chord.FoundHandler.
func (r *round) Found(m chord.FoundMsg, err error) {
	if err == nil {
		r.e.cache = append(r.e.cache, m.Owner)
	}
}

// orphan satisfies the interface too, but no entrypoint passes one.
type orphan struct {
	e *Engine
}

func (o *orphan) Found(m chord.FoundMsg, err error) {
	o.e.cache = nil // want `cache is confined to the "delivery" goroutine but orphan\.Found is not reachable`
}
