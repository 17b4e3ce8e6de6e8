package transport

import (
	"math"
	"sync"
	"time"
)

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
// wall clock in production and against the discrete-event simulator's
// virtual clock in planet-scale experiments.
//
// Arm calls h.Fire(tag) once d elapses on the clock's timeline. Which
// goroutine Fire runs on is implementation-defined (a fresh goroutine per
// fire for RealClock, the event loop for the simulator), so Fire must
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

// RealClock is the wall-clock Clock. Every RealClock shares one
// process-wide deadline heap driven by one runtime timer, so arming,
// stopping and resetting a timer allocate nothing. The zero value is ready
// to use; it is the default everywhere a Clock is injectable.
type RealClock struct{}

// Arm implements Clock on the process-wide deadline heap.
//
//lint:allocfree
func (RealClock) Arm(d time.Duration, h TimerHandler, tag uint64) Timer {
	id, gen := wall.Schedule(d, h, tag)
	return NewTimer(&wall, h, tag, id, gen)
}

// wall is the deadline heap behind every RealClock.
var wall = deadlineHeap{armed: math.MaxInt64}

// wallEpoch is the origin of the heap's timeline: deadlines are monotonic
// nanoseconds since it.
var wallEpoch = time.Now()

// deadlineHeap is the TimerQueue of RealClock. One runtime timer is armed
// for the earliest deadline; it is touched only when a new deadline is
// earlier than the one it is armed for, and a cancel leaves it armed (its
// expiry then finds nothing due and re-arms for the new earliest). On
// expiry every due entry is popped and each Fire runs on its own
// goroutine, as each time.AfterFunc callback does, so a Fire that blocks
// (a TCP self-send) holds up no other timer.
type deadlineHeap struct {
	// mu guards every field below. Schedule, Cancel and expire take it
	// through lock and unlock, which keep the allocation-free audit off
	// the sync and time packages.
	mu    sync.Mutex
	d     Deadlines[timerEntry] // deadlines in nanoseconds since wallEpoch
	timer *time.Timer           // the runtime timer; nil until the first Schedule
	armed int64                 // the deadline timer is armed for; MaxInt64 when none
}

// timerEntry is what a pending timer fires.
type timerEntry struct {
	h   TimerHandler
	tag uint64
}

// Schedule implements TimerQueue.
//
//lint:allocfree
func (q *deadlineHeap) Schedule(d time.Duration, h TimerHandler, tag uint64) (uint32, uint32) {
	now := q.lock()
	id, gen, e := q.d.Push(now + int64(max(d, 0)))
	e.h, e.tag = h, tag
	q.unlock(now)
	return id, gen
}

// Cancel implements TimerQueue.
//
//lint:allocfree
func (q *deadlineHeap) Cancel(id, gen uint32) bool {
	now := q.lock()
	ok := q.d.Cancel(id, gen)
	q.unlock(now)
	return ok
}

// expire is the runtime timer's callback: it pops every due entry and
// starts its Fire on a goroutine of its own.
func (q *deadlineHeap) expire() {
	now := q.lock()
	q.armed = math.MaxInt64 // the timer fired; unlock re-arms it
	for at, ok := q.d.Min(); ok && at <= now; at, ok = q.d.Min() {
		_, e, _ := q.d.Pop()
		go e.h.Fire(e.tag)
	}
	q.unlock(now)
}

// lock takes the heap's lock and returns the current instant.
//
//lint:allow-allocfree Mutex.Lock and the monotonic clock read allocate nothing
func (q *deadlineHeap) lock() int64 {
	q.mu.Lock()
	return int64(time.Since(wallEpoch))
}

// unlock arms the runtime timer for the earliest deadline if that is
// earlier than the one it is armed for, then releases the lock. now is
// the instant lock returned.
//
//lint:allow-allocfree Mutex.Unlock and Timer.Reset allocate nothing; the runtime timer is created once per process
func (q *deadlineHeap) unlock(now int64) {
	if at, ok := q.d.Min(); ok && at < q.armed {
		q.armed = at
		d := time.Duration(at - now)
		if q.timer == nil {
			q.timer = time.AfterFunc(d, q.expire)
		} else {
			q.timer.Reset(d)
		}
	}
	q.mu.Unlock()
}

var (
	_ Clock      = RealClock{}
	_ TimerQueue = (*deadlineHeap)(nil)
)
