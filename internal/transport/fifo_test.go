package transport

import "testing"

// TestFIFOOrder drives a FIFO through growth, drains and slides of its
// popped prefix, checking first-in-first-out order against a counter and
// that every slot it no longer uses is zeroed, so it pins nothing.
func TestFIFOOrder(t *testing.T) {
	var q FIFO[*int]
	next, want := 0, 0
	push := func(n int) {
		for range n {
			v := next
			q.Push(&v)
			next++
		}
	}
	pop := func(n int) {
		for range n {
			if got := *q.Pop(); got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
	}
	pinned := func() {
		t.Helper()
		for i, p := range q.buf[:cap(q.buf)] {
			if (i < q.head || i >= len(q.buf)) && p != nil {
				t.Fatalf("slot %d outside the queue still holds %d (head %d, len %d)", i, *p, q.head, len(q.buf))
			}
		}
	}
	for round := range 50 {
		push(1 + round%7)
		pop(round % 5)
		pinned()
		if q.Len() != next-want {
			t.Fatalf("Len %d, want %d", q.Len(), next-want)
		}
	}
	pop(q.Len())
	pinned()
	if q.head != 0 || len(q.buf) != 0 {
		t.Fatalf("drained queue kept head %d and length %d", q.head, len(q.buf))
	}
}

// TestInprocLockstepAllocFree sends one message at a time and waits for
// its delivery, so the mailbox fills and drains on every send. Its queue
// keeps its array: once warm, the loop allocates nothing.
func TestInprocLockstepAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	net := NewInproc()
	delivered := make(chan struct{})
	if _, err := net.Listen("b", HandlerFunc(func(Addr, any) { delivered <- struct{}{} })); err != nil {
		t.Fatal(err)
	}
	a, err := net.Listen("a", HandlerFunc(func(Addr, any) {}))
	if err != nil {
		t.Fatal(err)
	}
	msg := new(int) // a pointer travels in an interface without a box
	send := func() {
		if err := a.Send("b", msg); err != nil {
			t.Fatal(err)
		}
		<-delivered
	}
	send() // warm-up: grow the queue's array
	if n := testing.AllocsPerRun(200, send); n != 0 {
		t.Errorf("lockstep send and delivery: %.2f allocs per message, want 0", n)
	}
}
