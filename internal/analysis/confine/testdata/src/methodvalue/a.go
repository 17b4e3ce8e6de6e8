// Package methodvalue is a confinement fixture for bound method values: a
// method handed onward as x.m, or assigned, escapes or re-enters exactly
// like a function literal in the same position.
package methodvalue

import "time"

// Engine's state is touched only by the delivery goroutine.
//
//lint:confine delivery
type Engine struct {
	cache []int
}

// Invoke re-executes f on the delivery goroutine (stand-in for
// chord.Node.Invoke).
func (e *Engine) Invoke(f func()) error {
	f()
	return nil
}

// Background runs off the delivery goroutine and hands its update back as
// a bound method value.
func (e *Engine) Background() {
	_ = e.Invoke(e.insert)
}

// insert is reached only through Invoke: re-entry makes it delivery.
func (e *Engine) insert() {
	e.cache = append(e.cache, 1)
}

// round holds a probe callback bound once and called back later on the
// same goroutine, the shape of squid's dispatch round.
type round struct {
	e       *Engine
	onFound func(int)
}

//lint:entry delivery
func (e *Engine) Dispatch(lookup func(func(int))) {
	r := &round{e: e}
	r.onFound = r.found
	lookup(r.onFound)
}

// found is reachable from Dispatch, which took its value.
func (r *round) found(v int) {
	r.e.cache = append(r.e.cache, v)
}

//lint:entry delivery
func (e *Engine) Arm() {
	time.AfterFunc(time.Second, e.expire)
	stop := e.halt
	time.AfterFunc(time.Minute, stop)
}

// expire runs on the runtime timer goroutine.
func (e *Engine) expire() {
	e.cache = nil // want `cache is confined to the "delivery" goroutine but Engine\.expire runs on another goroutine`
}

// halt reaches the timer through a local binding.
func (e *Engine) halt() {
	e.cache = e.cache[:0] // want `cache is confined to the "delivery" goroutine but Engine\.halt runs on another goroutine` `cache is confined to the "delivery" goroutine but Engine\.halt runs on another goroutine`
}
