// Package transport is the fixture twin of squid/internal/transport's
// typed timers: a Clock runs a TimerHandler's Fire on its own goroutine.
// The analyzer matches the package by the last element of its path.
package transport

import "time"

// TimerHandler is called when a timer fires.
type TimerHandler interface {
	Fire(tag uint64)
}

// TimerFunc adapts a function to TimerHandler.
type TimerFunc func(tag uint64)

// Fire calls f(tag).
func (f TimerFunc) Fire(tag uint64) { f(tag) }

// Timer is an armed timer's handle.
type Timer struct{}

// Clock arms timers.
type Clock interface {
	Arm(d time.Duration, h TimerHandler, tag uint64) Timer
}
