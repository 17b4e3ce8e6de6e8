// Package engine is a confinement fixture shaped like squid's Engine:
// mutable query state owned by a delivery goroutine, a scheduler whose
// workers must re-enter via Invoke, and timer callbacks.
package engine

import "time"

// Engine's mutable state is touched only by the delivery goroutine.
//
//lint:confine delivery
type Engine struct {
	children map[int]int
	nextTok  int
}

// Invoke re-executes f on the delivery goroutine (stand-in for
// chord.Node.Invoke).
func (e *Engine) Invoke(f func()) error {
	f()
	return nil
}

type sched struct {
	queue []int // shared, lock-guarded elsewhere: not confined
	owner int   //lint:confine delivery
}

//lint:entry delivery
func (e *Engine) Deliver() {
	e.children[1] = 2
	e.step()
}

// step has no annotation but is reachable from Deliver.
func (e *Engine) step() {
	e.nextTok++
}

// Stray is not reachable from any delivery entrypoint.
func (e *Engine) Stray() {
	e.nextTok++ // want `nextTok is confined to the "delivery" goroutine but Engine\.Stray is not reachable`
}

//lint:entry delivery
func (e *Engine) Launch(s *sched) {
	go func() {
		e.children[3] = 4 // want `children is confined to the "delivery" goroutine but function literal in Engine\.Launch runs on another goroutine`
		_ = e.Invoke(func() {
			e.nextTok++ // re-entry: back on the delivery goroutine
		})
	}()
	time.AfterFunc(time.Second, func() {
		s.owner = 1 // want `owner is confined to the "delivery" goroutine but function literal in Engine\.Launch runs on another goroutine`
		_ = e.Invoke(func() {
			s.owner = 2 // re-entry: fine
		})
	})
	_ = s.queue // unannotated field: fine anywhere
}

// helper is reached from Launch through a plain literal: still delivery.
//
//lint:entry delivery
func (e *Engine) Indirect() {
	f := func() { e.nextTok++ }
	f()
}

func (e *Engine) Setup() {
	//lint:allow-confine construction runs before the delivery loop starts
	e.children = make(map[int]int)
}

// GoDecl shows a declared function launched with go: everything it
// reaches is off-goroutine.
//
//lint:entry delivery
func (e *Engine) Spawn() {
	go e.background()
}

func (e *Engine) background() {
	e.nextTok++ // want `nextTok is confined to the "delivery" goroutine but Engine\.background runs on another goroutine`
}
