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

// event is one scheduled entry. Entries live in the core's slab and are
// pooled: executed and cancelled events return to a free list and are
// reused by later schedules, with the entry's generation bumped on each
// release so a stale timer handle can never cancel its next occupant.
//
// An event is either a timer — a handler and its tag, fired as h.Fire(tag)
// — or a message delivery (box non-nil). Both ride inline in the entry, so
// neither a send nor a timer allocates. It is 64 bytes, one cache line:
// the bookkeeping a sift or a cancel touches lives in the core's dense
// arrays instead.
type event struct {
	h   transport.TimerHandler
	tag uint64

	box  *box
	from transport.Addr
	msg  any
}

// slot is one heap position: the event's ordering key (time, sequence)
// held inline, so sifting compares contiguous slots instead of chasing
// every entry, and the entry's slab index. A slot holds no pointer, so the
// collector never scans the heap.
type slot struct {
	at  VTime
	seq uint64
	id  uint32
}

// Core is the event loop: a virtual clock and a binary min-heap of events
// ordered by (time, sequence). The sequence tie-break makes same-instant
// execution order the scheduling order, so a run is fully deterministic.
//
// Core is not safe for concurrent use; the simulation owns it from a single
// goroutine and all protocol code runs inside event callbacks on that same
// goroutine.
type Core struct {
	now    VTime
	seq    uint64
	heap   []slot
	events []event  // the entry slab, indexed by slot.id
	pos    []int32  // heap position of each entry; -1 while it is free
	gens   []uint32 // generation of each entry, bumped on release
	free   []uint32 // free entries, reused last-in first-out
	steps  uint64   // events executed since creation
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
// It is a timer whose handler is fn itself.
func (c *Core) After(d time.Duration, fn func()) {
	c.schedule(c.deadline(d), thunk(fn), 0)
}

// thunk adapts a plain callback to the timer handler an event carries.
type thunk func()

func (f thunk) Fire(uint64) { f() }

// deadline converts a relative delay to an absolute virtual instant,
// clamping non-positive delays to now.
//
//lint:allocfree
func (c *Core) deadline(d time.Duration) VTime {
	if d < 0 {
		d = 0
	}
	return c.now + VTime(d)
}

// schedule inserts a timer event firing h.Fire(tag) at absolute virtual
// time at and returns its entry plus the generation that makes the handle
// valid for cancel. at must not be in the past.
//
//lint:allocfree
func (c *Core) schedule(at VTime, h transport.TimerHandler, tag uint64) (uint32, uint32) {
	id := c.push(at)
	ev := &c.events[id]
	ev.h, ev.tag = h, tag
	return id, c.gens[id]
}

// scheduleDelivery inserts a delivery of msg from → mailbox b at
// absolute virtual time at, carried inline in the pooled entry. It takes a
// sequence number exactly as schedule does, so the heap order does not
// depend on which kind of event a send became.
func (c *Core) scheduleDelivery(at VTime, b *box, from transport.Addr, msg any) {
	ev := &c.events[c.push(at)]
	ev.box, ev.from, ev.msg = b, from, msg
}

// push takes an entry from the free list (or grows the slab), stamps it
// with the next sequence number and inserts it into the heap. It returns
// the entry's slab index; a pointer into the slab is only good until the
// next push.
//
//lint:allocfree
func (c *Core) push(at VTime) uint32 {
	if at < c.now {
		at = c.now
	}
	c.seq++
	var id uint32
	if n := len(c.free); n > 0 {
		id = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		id = uint32(len(c.events))
		c.events = append(c.events, event{})
		c.pos = append(c.pos, -1)
		c.gens = append(c.gens, 0)
	}
	c.heap = append(c.heap, slot{})
	c.siftUp(len(c.heap)-1, slot{at: at, seq: c.seq, id: id})
	return id
}

// cancel removes a pending event, reporting whether it was still pending.
// The generation check rejects handles whose entry already fired or was
// cancelled and reused; removal is eager so dead entries never occupy heap
// slots (every completed RPC cancels its timeout, so at planet scale dead
// entries would otherwise dominate the heap and its sift costs).
//
//lint:allocfree
func (c *Core) cancel(id, gen uint32) bool {
	if c.gens[id] != gen || c.pos[id] < 0 {
		return false
	}
	c.remove(int(c.pos[id]))
	c.release(id)
	return true
}

// release returns a removed entry to the free list, invalidating any
// outstanding handles to it and dropping its references for the collector.
//
//lint:allocfree
func (c *Core) release(id uint32) {
	c.events[id] = event{}
	c.gens[id]++
	c.pos[id] = -1
	c.free = append(c.free, id)
}

// inFlight calls fn with every message scheduled for delivery to the
// mailbox named to, in no particular order.
func (c *Core) inFlight(to transport.Addr, fn func(msg any)) {
	for _, sl := range c.heap {
		if ev := &c.events[sl.id]; ev.box != nil && ev.box.addr == to {
			fn(ev.msg)
		}
	}
}

// Step executes the next event, advancing the virtual clock to its instant.
// It returns false when no event remains.
func (c *Core) Step() bool {
	if len(c.heap) == 0 {
		return false
	}
	top := c.heap[0]
	c.remove(0)
	c.now = top.at
	ev := &c.events[top.id]
	h, tag, b, from, msg := ev.h, ev.tag, ev.box, ev.from, ev.msg
	c.release(top.id) // before running it: the event may schedule and reuse this entry
	c.steps++
	if b != nil {
		b.deliver(from, msg)
	} else {
		h.Fire(tag)
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
// caller must release the entry.
//
//lint:allocfree
func (c *Core) remove(i int) {
	last := len(c.heap) - 1
	moved := c.heap[last]
	c.heap = c.heap[:last]
	if i == last {
		return
	}
	// Refill the hole at i with the former last slot: it sinks if it is
	// later than i's children, or rises if it is earlier than i's parent.
	if i > 0 && moved.before(c.heap[(i-1)/2]) {
		c.siftUp(i, moved)
	} else {
		c.siftDown(i, moved)
	}
}

// before is the heap order: earlier instant first, scheduling order within
// an instant.
//
//lint:allocfree
func (a slot) before(b slot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// place stores s at heap index i and records the position for cancel.
//
//lint:allocfree
func (c *Core) place(i int, s slot) {
	c.heap[i] = s
	c.pos[s.id] = int32(i)
}

// siftUp fills the hole at index i with s, moving earlier-ordered ancestors
// down past it. This and siftDown are the simulator's hottest path — two
// heap operations per message at 10⁶+ events per experiment — and are
// pinned allocation-free. Both move a hole rather than swapping, so each
// level costs one slot write and one position update — in the dense pos
// array, not in the scattered entries.
//
//lint:allocfree
func (c *Core) siftUp(i int, s slot) {
	for i > 0 {
		parent := (i - 1) / 2
		p := c.heap[parent]
		if !s.before(p) {
			break
		}
		c.place(i, p)
		i = parent
	}
	c.place(i, s)
}

// siftDown fills the hole at index i with s, moving earlier-ordered
// children up past it.
//
//lint:allocfree
func (c *Core) siftDown(i int, s slot) {
	n := len(c.heap)
	for {
		next := 2*i + 1
		if next >= n {
			break
		}
		if right := next + 1; right < n && c.heap[right].before(c.heap[next]) {
			next = right
		}
		if !c.heap[next].before(s) {
			break
		}
		c.place(i, c.heap[next])
		i = next
	}
	c.place(i, s)
}
