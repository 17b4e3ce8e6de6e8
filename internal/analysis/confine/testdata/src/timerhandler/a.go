// Package timerhandler is a confinement fixture for typed timers: a Clock
// runs a transport.TimerHandler's Fire, and a literal converted to
// transport.TimerFunc, on its own goroutine, so they must re-enter via
// Invoke like a time.AfterFunc literal.
package timerhandler

import (
	"time"

	"transport"
)

// Engine's state is touched only by the delivery goroutine.
//
//lint:confine delivery
type Engine struct {
	clock    transport.Clock
	children map[uint64]int
}

// Invoke re-executes f on the delivery goroutine (stand-in for
// chord.Node.Invoke).
func (e *Engine) Invoke(f func()) error {
	f()
	return nil
}

// childTimers fires child deadlines, the shape of squid's armChild.
type childTimers Engine

// deadlineTimers fires query deadlines.
type deadlineTimers Engine

//lint:entry delivery
func (e *Engine) Arm(tok uint64) {
	e.clock.Arm(time.Second, (*childTimers)(e), tok)
	e.clock.Arm(time.Second, (*deadlineTimers)(e), tok)
	e.clock.Arm(time.Second, transport.TimerFunc(func(tag uint64) {
		delete(e.children, tag) // want `children is confined to the "delivery" goroutine but function literal in Engine\.Arm runs on another goroutine`
	}), tok)
}

// Fire touches the child table before its hop: a race on a real clock.
func (t *childTimers) Fire(tok uint64) {
	e := (*Engine)(t)
	e.drop(tok)
	_ = e.Invoke(func() { e.expire(tok) })
}

// Fire hops onto the delivery goroutine first: clean.
func (t *deadlineTimers) Fire(tok uint64) {
	e := (*Engine)(t)
	_ = e.Invoke(func() { e.expire(tok) })
}

//lint:entry delivery
func (e *Engine) Deliver(tok uint64) {
	e.drop(tok)
}

// drop is reachable from Deliver, but also from a timer handler.
func (e *Engine) drop(tok uint64) {
	delete(e.children, tok) // want `children is confined to the "delivery" goroutine but Engine\.drop runs on another goroutine`
}

// expire runs on the delivery goroutine, re-entered via Invoke.
func (e *Engine) expire(tok uint64) {
	e.children[tok]++
}
