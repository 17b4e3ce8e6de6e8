// Package dessim is the discrete-event driver of the internal/sim harness:
// a virtual clock, a single-threaded event heap, and a transport whose
// every message is a scheduled future event. Where sim's goroutine driver
// runs one mailbox goroutine per peer over real channels — faithful but
// capped around a hundred nodes — dessim runs the same harness and
// protocol code with zero goroutines per node, so
// planet-scale rings (10⁴–10⁵ peers) bootstrap, churn, and answer query
// storms in seconds of wall time, exactly as the paper's own simulator
// measured its figures.
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

// event is one heap entry. Entries are pooled: executed and cancelled
// events return to a free list and are reused by later schedules, with gen
// bumped on each release so a stale timer handle can never cancel the
// entry's next occupant.
//
// An event is either a callback (fn) or a message delivery, whose fields
// ride inline in the entry (net non-nil) so a send allocates no closure.
type event struct {
	at  VTime
	seq uint64
	gen uint32
	idx int32 // position in the heap; -1 while on the free list
	fn  func()

	net      *Net
	from, to transport.Addr
	msg      any
}

// Core is the event loop: a virtual clock and a binary min-heap of events
// ordered by (time, sequence). The sequence tie-break makes same-instant
// execution order the scheduling order, so a run is fully deterministic.
//
// Core is not safe for concurrent use; the simulation owns it from a single
// goroutine and all protocol code runs inside event callbacks on that same
// goroutine.
type Core struct {
	now   VTime
	seq   uint64
	heap  []*event
	free  []*event
	steps uint64 // events executed since creation
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
func (c *Core) Pending() int { return len(c.heap) }

// After schedules fn to run after d of virtual time. A non-positive d runs
// fn at the current instant, after already-scheduled same-instant events.
func (c *Core) After(d time.Duration, fn func()) {
	c.schedule(c.deadline(d), fn)
}

// deadline converts a relative delay to an absolute virtual instant,
// clamping non-positive delays to now.
func (c *Core) deadline(d time.Duration) VTime {
	if d < 0 {
		d = 0
	}
	return c.now + VTime(d)
}

// schedule inserts a callback event at absolute virtual time at and
// returns its handle plus the generation that makes the handle valid for
// cancel. at must not be in the past.
func (c *Core) schedule(at VTime, fn func()) (*event, uint32) {
	ev := c.push(at)
	ev.fn = fn
	return ev, ev.gen
}

// scheduleDelivery inserts a delivery of msg from → to at absolute virtual
// time at, carried inline in the pooled entry. It takes a sequence number
// exactly as schedule does, so the heap order does not depend on which
// kind of event a send became.
func (c *Core) scheduleDelivery(at VTime, n *Net, from, to transport.Addr, msg any) {
	ev := c.push(at)
	ev.net, ev.from, ev.to, ev.msg = n, from, to, msg
}

// push takes an entry from the free list (or allocates one), stamps it with
// the next sequence number and inserts it into the heap.
func (c *Core) push(at VTime) *event {
	if at < c.now {
		at = c.now
	}
	c.seq++
	var ev *event
	if n := len(c.free); n > 0 {
		ev = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.at, ev.seq = at, c.seq
	ev.idx = int32(len(c.heap))
	c.heap = append(c.heap, ev)
	c.siftUp(len(c.heap) - 1)
	return ev
}

// cancel removes a pending event, reporting whether it was still pending.
// The generation check rejects handles whose entry already fired or was
// cancelled and reused; removal is eager so dead entries never occupy heap
// slots (every completed RPC cancels its timeout, so at planet scale dead
// entries would otherwise dominate the heap and its sift costs).
func (c *Core) cancel(ev *event, gen uint32) bool {
	if ev == nil || ev.gen != gen || ev.idx < 0 {
		return false
	}
	c.remove(int(ev.idx))
	c.release(ev)
	return true
}

// release returns a removed entry to the free list, invalidating any
// outstanding handles to it and dropping its references for the collector.
func (c *Core) release(ev *event) {
	ev.fn = nil
	ev.net, ev.from, ev.to, ev.msg = nil, "", "", nil
	ev.gen++
	ev.idx = -1
	c.free = append(c.free, ev)
}

// Step executes the next event, advancing the virtual clock to its instant.
// It returns false when no event remains.
func (c *Core) Step() bool {
	if len(c.heap) == 0 {
		return false
	}
	ev := c.heap[0]
	c.remove(0)
	c.now = ev.at
	fn, net, from, to, msg := ev.fn, ev.net, ev.from, ev.to, ev.msg
	c.release(ev) // before running it: the event may schedule and reuse this entry
	c.steps++
	if net != nil {
		net.deliver(from, to, msg)
	} else {
		fn()
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

// remove deletes the entry at heap index i, restoring the invariant. The
// caller still holds the *event and must release it.
//
//lint:allocfree
func (c *Core) remove(i int) {
	last := len(c.heap) - 1
	if i != last {
		c.swap(i, last)
	}
	c.heap[last] = nil // release the reference for the collector
	c.heap = c.heap[:last]
	if i < last {
		c.siftDown(i)
		c.siftUp(i)
	}
}

// before is the heap order: earlier instant first, scheduling order within
// an instant.
//
//lint:allocfree
func (c *Core) before(i, j int) bool {
	a, b := c.heap[i], c.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// swap exchanges two heap entries, keeping their back-indices current.
//
//lint:allocfree
func (c *Core) swap(i, j int) {
	c.heap[i], c.heap[j] = c.heap[j], c.heap[i]
	c.heap[i].idx = int32(i)
	c.heap[j].idx = int32(j)
}

// siftUp restores the heap invariant from a freshly appended leaf. This and
// siftDown are the simulator's hottest path — two heap operations per
// message at 10⁶+ events per experiment — and are pinned allocation-free.
//
//lint:allocfree
func (c *Core) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !c.before(i, parent) {
			return
		}
		c.swap(i, parent)
		i = parent
	}
}

// siftDown restores the heap invariant downward from index i.
//
//lint:allocfree
func (c *Core) siftDown(i int) {
	n := len(c.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		next := left
		if right := left + 1; right < n && c.before(right, left) {
			next = right
		}
		if !c.before(next, i) {
			return
		}
		c.swap(i, next)
		i = next
	}
}
