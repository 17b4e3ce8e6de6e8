package transport

import (
	"math/rand"
	"testing"
)

// checkHeap fails t unless h is in heap order and its position index
// names every slot's place, and only those.
func checkHeap(t *testing.T, h *heap) {
	t.Helper()
	for i, s := range h.slots {
		if i > 0 && s.before(h.slots[(i-1)/2]) {
			p := h.slots[(i-1)/2]
			t.Fatalf("heap order broken at %d: (%d, %d) before its parent's (%d, %d)", i, s.at, s.seq, p.at, p.seq)
		}
		if h.pos[s.id] != int32(i) {
			t.Fatalf("entry %d sits at %d, its position index says %d", s.id, i, h.pos[s.id])
		}
	}
	placed := 0
	for _, p := range h.pos {
		if p >= 0 {
			placed++
		}
	}
	if placed != len(h.slots) {
		t.Fatalf("position index places %d entries, the heap holds %d", placed, len(h.slots))
	}
}

// TestDeadlines drives the heap with seeded random pushes, cancels (many
// through stale handles) and pops, against a model that keeps every
// pending entry: each Pop must return the pending entry with the earliest
// deadline, the first pushed among equals, and each Cancel must report
// exactly whether its entry was still pending.
func TestDeadlines(t *testing.T) {
	type handle struct {
		id, gen uint32
		order   uint64 // push order, also the entry's value
	}
	type pending struct {
		at    int64
		order uint64
	}
	rng := rand.New(rand.NewSource(7))
	var d Deadlines[uint64]
	model := make(map[uint64]pending) // by push order
	var handles []handle
	var pushes uint64
	for step := 0; step < 20000; step++ {
		switch r := rng.Intn(10); {
		case r < 5: // push: deadlines from a narrow range, so ties are common
			at := int64(rng.Intn(16))
			pushes++
			id, gen, e := d.Push(at)
			if *e != 0 {
				t.Fatalf("step %d: pushed entry %d holds %d, want it zeroed", step, id, *e)
			}
			*e = pushes
			handles = append(handles, handle{id, gen, pushes})
			model[pushes] = pending{at, pushes}
		case r < 7 && len(handles) > 0: // cancel any handle ever issued
			h := handles[rng.Intn(len(handles))]
			_, want := model[h.order]
			if got := d.Cancel(h.id, h.gen); got != want {
				t.Fatalf("step %d: Cancel of push %d = %v, want %v", step, h.order, got, want)
			}
			delete(model, h.order)
		default: // pop
			var min *pending
			for _, p := range model {
				if min == nil || p.at < min.at || p.at == min.at && p.order < min.order {
					min = &p
				}
			}
			at, e, ok := d.Pop()
			if ok != (min != nil) {
				t.Fatalf("step %d: Pop ok = %v with %d pending", step, ok, len(model))
			}
			if ok {
				if at != min.at || *e != min.order {
					t.Fatalf("step %d: Pop = push %d at %d, want push %d at %d", step, *e, at, min.order, min.at)
				}
				delete(model, min.order)
			}
		}
		checkHeap(t, &d.heap)
		if d.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, d.Len(), len(model))
		}
	}
	n := 0
	d.Each(func(e *uint64) {
		n++
		if _, ok := model[*e]; !ok {
			t.Errorf("Each visits push %d, which is not pending", *e)
		}
	})
	if n != len(model) {
		t.Errorf("Each visits %d entries, want %d", n, len(model))
	}
}
