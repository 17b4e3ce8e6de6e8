package transport

import "time"

// TimerHandler receives the expiries of timers armed on a Clock. The tag is
// the value given to Arm, so one handler (a node, an engine) serves every
// timer it arms and tells them apart by tag instead of by closure.
type TimerHandler interface {
	Fire(tag uint64)
}

// TimerFunc adapts a function to TimerHandler, for cold paths where a
// closure per timer is acceptable.
type TimerFunc func(tag uint64)

// Fire calls f(tag).
func (f TimerFunc) Fire(tag uint64) { f(tag) }

// Clock arms timers. Protocol code (chord RPC timeouts and retry backoff,
// squid subtree recovery and query deadlines) takes its timers from a
// Clock instead of the time package, so the same code runs against the
// runtime timers in production and against the discrete-event simulator's
// virtual clock in planet-scale experiments.
//
// Arm calls h.Fire(tag) once d elapses on the clock's timeline. Which
// goroutine Fire runs on is implementation-defined (the runtime's timer
// goroutine for RealClock, the event loop for the simulator), so Fire must
// hand off to the owning goroutine itself — in this codebase always via
// Node.Invoke, which is safe from anywhere.
type Clock interface {
	Arm(d time.Duration, h TimerHandler, tag uint64) Timer
}

// TimerQueue is a clock's side of its Timer handles: the operations a
// handle forwards, addressed by the (id, gen) pair Schedule returned. The
// generation lets a queue reuse its entries: a handle whose timer already
// fired or was cancelled no longer matches, so it cannot touch the entry's
// next occupant.
type TimerQueue interface {
	// Cancel removes the timer (id, gen), reporting whether it was still
	// pending.
	Cancel(id, gen uint32) bool
	// Schedule arms h.Fire(tag) after d and returns the new timer's id
	// and generation.
	Schedule(d time.Duration, h TimerHandler, tag uint64) (id, gen uint32)
}

// Timer is a value handle on one armed timer. Copying it copies the
// handle, not the timer. Stop and Reset report whether the timer was still
// pending, with the same semantics as the time package; Reset re-arms a
// timer that already fired or was stopped. The zero Timer is inert: Stop
// and Reset return false and arm nothing.
type Timer struct {
	q       TimerQueue
	h       TimerHandler
	tag     uint64
	id, gen uint32
}

// NewTimer builds the handle a Clock's Arm returns for the timer (id, gen)
// of queue q, which fires h.Fire(tag).
//
//lint:allocfree
func NewTimer(q TimerQueue, h TimerHandler, tag uint64, id, gen uint32) Timer {
	return Timer{q: q, h: h, tag: tag, id: id, gen: gen}
}

// Stop cancels the timer, reporting whether it was still pending.
//
//lint:allocfree
func (t *Timer) Stop() bool {
	return t.q != nil && t.q.Cancel(t.id, t.gen)
}

// Reset re-arms the timer to fire after d, reporting whether it was still
// pending.
//
//lint:allocfree
func (t *Timer) Reset(d time.Duration) bool {
	if t.q == nil {
		return false
	}
	was := t.q.Cancel(t.id, t.gen)
	t.id, t.gen = t.q.Schedule(d, t.h, t.tag)
	return was
}

// RealClock is the wall-clock Clock backed by the runtime's timers. The
// zero value is ready to use; it is the default everywhere a Clock is
// injectable.
type RealClock struct{}

// Arm implements Clock via time.AfterFunc.
func (RealClock) Arm(d time.Duration, h TimerHandler, tag uint64) Timer {
	t := time.AfterFunc(d, func() { h.Fire(tag) })
	return NewTimer((*realTimer)(t), h, tag, 0, 0)
}

// realTimer is the TimerQueue of one runtime timer: the timer keeps its
// callback across Stop and Reset, so the handle's id and generation are
// unused.
type realTimer time.Timer

//lint:allow-allocfree the runtime timer's Stop allocates nothing
func (t *realTimer) Cancel(uint32, uint32) bool { return (*time.Timer)(t).Stop() }

//lint:allow-allocfree the runtime timer's Reset allocates nothing
func (t *realTimer) Schedule(d time.Duration, _ TimerHandler, _ uint64) (uint32, uint32) {
	(*time.Timer)(t).Reset(d)
	return 0, 0
}

var _ Clock = RealClock{}
