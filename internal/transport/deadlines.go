package transport

// Deadlines is a binary min-heap of deadlines over a slab of pooled
// entries of type E: the event queue of both clocks, the wall clock's
// timers (RealClock) and the discrete-event core's events and timers
// (dessim). It orders by (at, push order), so entries due at the same
// instant pop first in, first out.
//
// A heap slot holds the key inline beside the entry's slab index, so a
// sift reads contiguous pointer-free slots instead of chasing one entry
// per level, and the collector never scans the heap. A dense position
// index, kept like the slab, makes Cancel an eager O(log n) removal: a
// tombstone left behind per cancelled timer would dominate the heap of a
// churn storm. A popped or cancelled entry returns to a free list with
// its generation bumped, so a stale (id, gen) handle never reaches the
// entry's next occupant. Pushing, popping and cancelling allocate nothing
// once the slab has grown.
//
// The zero value is an empty heap. Deadlines is not safe for concurrent
// use.
type Deadlines[E any] struct {
	heap
	entries []E    // the entry slab, indexed by slot.id
	popped  uint32 // the entry the last Pop returned
}

// heap is the part of Deadlines that does not depend on the entry type,
// so its sifts compile once.
type heap struct {
	slots []slot
	pos   []int32  // heap position of each entry; -1 while it is free
	gens  []uint32 // generation of each entry, bumped on release
	free  []uint32 // free entries, reused last-in first-out
	seq   uint64   // pushes so far: the tie-break within an instant
}

// slot is one heap position: the entry's key and its slab index.
type slot struct {
	at  int64
	seq uint64
	id  uint32
}

// Push inserts an entry due at at and returns its handle (id, gen) and the
// entry, zeroed, for the caller to fill. The pointer is good only until
// the next Push.
//
//lint:allocfree
func (d *Deadlines[E]) Push(at int64) (id, gen uint32, e *E) {
	id = d.take()
	var zero E
	if int(id) == len(d.entries) {
		d.entries = append(d.entries, zero)
	} else {
		d.entries[id] = zero
	}
	d.insert(at, id)
	return id, d.gens[id], &d.entries[id]
}

// Cancel removes the entry (id, gen), reporting whether it was still
// pending.
//
//lint:allocfree
func (d *Deadlines[E]) Cancel(id, gen uint32) bool {
	if d.gens[id] != gen || d.pos[id] < 0 {
		return false
	}
	d.remove(int(d.pos[id]))
	d.release(id)
	var zero E
	d.entries[id] = zero // drop its references for the collector
	return true
}

// Pop removes the earliest entry and returns its deadline and the entry;
// ok is false when the heap is empty. The entry is released before Pop
// returns, so the caller may push again at once, and the pointer is good
// only until the next Push or Pop.
//
//lint:allocfree
func (d *Deadlines[E]) Pop() (at int64, e *E, ok bool) {
	if len(d.slots) == 0 {
		return 0, nil, false
	}
	if d.pos[d.popped] < 0 {
		// The entry the last Pop returned is still free: drop its
		// references for the collector. Zeroing it here rather than in
		// the last Pop spares that Pop's caller a copy of the entry.
		var zero E
		d.entries[d.popped] = zero
	}
	top := d.slots[0]
	d.remove(0)
	d.release(top.id)
	d.popped = top.id
	return top.at, &d.entries[top.id], true
}

// Each calls fn with every pending entry, in no particular order. fn must
// not push, pop or cancel.
func (d *Deadlines[E]) Each(fn func(e *E)) {
	for _, s := range d.slots {
		fn(&d.entries[s.id])
	}
}

// Len returns the number of pending entries.
func (h *heap) Len() int { return len(h.slots) }

// Min returns the earliest deadline; ok is false when the heap is empty.
//
//lint:allocfree
func (h *heap) Min() (at int64, ok bool) {
	if len(h.slots) == 0 {
		return 0, false
	}
	return h.slots[0].at, true
}

// take returns a free entry's index, or grows the index arrays by one;
// the caller grows its slab to match.
//
//lint:allocfree
func (h *heap) take() uint32 {
	if n := len(h.free); n > 0 {
		id := h.free[n-1]
		h.free = h.free[:n-1]
		return id
	}
	h.pos = append(h.pos, -1)
	h.gens = append(h.gens, 0)
	return uint32(len(h.pos) - 1)
}

// insert puts entry id into the heap at at, after every entry already
// due at the same instant.
//
//lint:allocfree
func (h *heap) insert(at int64, id uint32) {
	h.seq++
	h.slots = append(h.slots, slot{})
	h.siftUp(len(h.slots)-1, slot{at: at, seq: h.seq, id: id})
}

// release returns a removed entry to the free list: a handle to it no
// longer matches.
//
//lint:allocfree
func (h *heap) release(id uint32) {
	h.gens[id]++
	h.pos[id] = -1
	h.free = append(h.free, id)
}

// remove deletes the slot at heap index i, restoring the heap order. The
// caller releases the entry.
//
//lint:allocfree
func (h *heap) remove(i int) {
	last := len(h.slots) - 1
	moved := h.slots[last]
	h.slots = h.slots[:last]
	if i == last {
		return
	}
	// The former last slot fills the hole: it rises if it is earlier than
	// i's parent, else it sinks below i's children.
	if i > 0 && moved.before(h.slots[(i-1)/2]) {
		h.siftUp(i, moved)
	} else {
		h.siftDown(i, moved)
	}
}

// before is the heap order: earlier instant first, push order within an
// instant.
//
//lint:allocfree
func (a slot) before(b slot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp fills the hole at index i with s, moving later ancestors down
// past it. This and siftDown are the simulator's hottest path, two heap
// operations per message. Both move a hole rather than swapping, so each
// level costs one slot write and one write to the dense position index.
//
//lint:allocfree
func (h *heap) siftUp(i int, s slot) {
	for i > 0 {
		parent := (i - 1) / 2
		p := h.slots[parent]
		if !s.before(p) {
			break
		}
		h.place(i, p)
		i = parent
	}
	h.place(i, s)
}

// siftDown fills the hole at index i with s, moving earlier children up
// past it.
//
//lint:allocfree
func (h *heap) siftDown(i int, s slot) {
	n := len(h.slots)
	for {
		next := 2*i + 1
		if next >= n {
			break
		}
		if right := next + 1; right < n && h.slots[right].before(h.slots[next]) {
			next = right
		}
		if !h.slots[next].before(s) {
			break
		}
		h.place(i, h.slots[next])
		i = next
	}
	h.place(i, s)
}

// place stores s at heap index i and records the position for Cancel.
//
//lint:allocfree
func (h *heap) place(i int, s slot) {
	h.slots[i] = s
	h.pos[s.id] = int32(i)
}
