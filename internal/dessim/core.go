// Package dessim is the discrete-event driver of the internal/sim harness:
// a virtual clock, a single-threaded event heap, and a transport whose
// every message is a scheduled future event. Where sim's goroutine driver
// runs one mailbox goroutine per peer over real channels — faithful but
// capped around a hundred nodes — dessim runs the same harness and
// protocol code with zero goroutines per node, so
// planet-scale rings (10⁴–10⁵ peers) bootstrap, churn, and answer query
// storms in seconds of wall time, exactly as the paper's own simulator
// measured its figures. A network here takes the goroutine driver's
// sim.Config unchanged (Config is an alias); the driver only puts every
// engine and chord timer on the virtual clock and runs engines serially
// (Workers = -1).
//
// Everything in this package is confined to one goroutine (the test or
// experiment driver) and reads no wall clock: time is the event heap's
// cursor and every random draw flows from a seeded source, so a run is a
// pure function of its seed. The nondet analyzer enforces the discipline.
package dessim

import (
	"time"

	"squid/internal/transport"
)

// VTime is a point in virtual time, in nanoseconds since the simulation
// started. It advances only when the event loop executes a scheduled event;
// wall-clock progress never moves it.
type VTime int64

// event is one scheduled entry: either a timer — a handler and its tag,
// fired as h.Fire(tag) — or a message delivery (box non-nil). Both ride
// inline in the entry, so neither a send nor a timer allocates. It is 64
// bytes, one cache line.
type event struct {
	h   transport.TimerHandler
	tag uint64

	box  *box
	from transport.Addr
	msg  any
}

// Core is the event loop: a virtual clock over a heap of events. Events
// due at the same instant run in scheduling order, so a run is fully
// deterministic.
//
// Core is not safe for concurrent use; the simulation owns it from a single
// goroutine and all protocol code runs inside event callbacks on that same
// goroutine.
type Core struct {
	now    VTime
	steps  uint64 // events executed since creation
	events transport.Deadlines[event]
}

// NewCore returns an event core at virtual time zero.
func NewCore() *Core { return &Core{} }

// Now returns the current virtual time.
func (c *Core) Now() VTime { return c.now }

// Elapsed returns the virtual time as a duration since the simulation
// started.
func (c *Core) Elapsed() time.Duration { return time.Duration(c.now) }

// Steps returns the total number of events executed — the simulator's unit
// of work, and the numerator of the events/sec throughput benchmark.
func (c *Core) Steps() uint64 { return c.steps }

// Pending returns the number of scheduled events. Cancellation removes its
// entry eagerly, so this is exactly the live count.
func (c *Core) Pending() int { return c.events.Len() }

// After schedules fn to run after d of virtual time. A non-positive d runs
// fn at the current instant, after already-scheduled same-instant events.
// It is a timer whose handler is fn itself.
func (c *Core) After(d time.Duration, fn func()) {
	virtualClock{c}.Schedule(d, thunk(fn), 0)
}

// thunk adapts a plain callback to the timer handler an event carries.
type thunk func()

func (f thunk) Fire(uint64) { f() }

// inFlight calls fn with every message scheduled for delivery to the
// mailbox named to, in no particular order.
func (c *Core) inFlight(to transport.Addr, fn func(msg any)) {
	c.events.Each(func(ev *event) {
		if ev.box != nil && ev.box.addr == to {
			fn(ev.msg)
		}
	})
}

// Step executes the next event, advancing the virtual clock to its instant.
// It returns false when no event remains.
func (c *Core) Step() bool {
	at, ev, ok := c.events.Pop()
	if !ok {
		return false
	}
	c.now = VTime(at)
	c.steps++
	// ev is good only until the event pushes: each call reads it for its
	// arguments before the event runs.
	if ev.box != nil {
		ev.box.deliver(ev.from, ev.msg)
	} else {
		ev.h.Fire(ev.tag)
	}
	return true
}

// Run executes events until none are live — the event core's quiesce: with
// every message and timer a scheduled event, an empty heap is exactly "no
// message in flight and no timer pending". It returns the number of events
// executed by this call.
//
// Run terminates because the simulated protocols do: timers are armed only
// as RPC timeouts, retry backoff, and recovery deadlines, all of which are
// cancelled or bounded once their protocol exchange settles. A periodic
// self-rescheduling timer would loop forever; drive such designs with Step
// or bounded scheduling instead.
func (c *Core) Run() uint64 {
	start := c.steps
	for c.Step() {
	}
	return c.steps - start
}
