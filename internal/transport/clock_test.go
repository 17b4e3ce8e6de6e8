package transport

import (
	"math/rand"
	"testing"
	"time"
)

// tagRecorder receives each Fire on a channel, so a test can wait for a
// timer that the runtime fires on its own goroutine.
type tagRecorder chan uint64

func (r tagRecorder) Fire(tag uint64) { r <- tag }

// expectFire waits for exactly one Fire carrying tag, then checks that no
// second one follows within quiet.
func expectFire(t *testing.T, fired tagRecorder, tag uint64, quiet time.Duration) {
	t.Helper()
	select {
	case got := <-fired:
		if got != tag {
			t.Errorf("Fire(%d), want Fire(%d)", got, tag)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("timer tagged %d never fired", tag)
	}
	select {
	case got := <-fired:
		t.Errorf("timer fired again: Fire(%d)", got)
	case <-time.After(quiet):
	}
}

func TestRealClockArmFiresOnceWithTag(t *testing.T) {
	fired := make(tagRecorder, 4)
	RealClock{}.Arm(time.Millisecond, fired, 42)
	expectFire(t, fired, 42, 20*time.Millisecond)
}

func TestRealClockStop(t *testing.T) {
	fired := make(tagRecorder, 4)
	tm := RealClock{}.Arm(50*time.Millisecond, fired, 1)
	if !tm.Stop() {
		t.Fatal("Stop on a pending timer should report true")
	}
	if tm.Stop() {
		t.Error("second Stop should report false")
	}
	select {
	case got := <-fired:
		t.Errorf("stopped timer fired: Fire(%d)", got)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestRealClockReset(t *testing.T) {
	fired := make(tagRecorder, 4)
	tm := RealClock{}.Arm(time.Hour, fired, 7)
	if !tm.Reset(time.Millisecond) {
		t.Error("Reset on a pending timer should report true")
	}
	expectFire(t, fired, 7, 20*time.Millisecond)
	if tm.Stop() {
		t.Error("Stop after the timer fired should report false")
	}
}

func TestRealClockZeroTimer(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Error("zero Timer: Stop should report false")
	}
	if tm.Reset(time.Millisecond) {
		t.Error("zero Timer: Reset should report false")
	}
}

// pendingTimers returns the number of timers pending on the wall clock's
// heap, after checking the heap's order and its position index.
func pendingTimers(t *testing.T) int {
	t.Helper()
	q := &wall
	q.mu.Lock()
	defer q.mu.Unlock()
	checkHeap(t, &q.d.heap)
	return q.d.Len()
}

// TestRealClockAllocFree pins the deadline heap: once it has a pooled
// entry, arming a wall-clock timer, resetting it and stopping it allocate
// nothing.
func TestRealClockAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var h TimerHandler = make(tagRecorder, 1)
	cycle := func() {
		tm := RealClock{}.Arm(time.Hour, h, 7)
		if !tm.Reset(2*time.Hour) || !tm.Stop() {
			t.Fatal("Reset and Stop on a pending timer should report true")
		}
	}
	cycle() // warm: grows the slab and the heap, creates the runtime timer
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("Arm + Reset + Stop: %.1f allocs, want 0", n)
	}
}

// TestRealClockManyTimers arms 200 timers with shuffled deadlines and
// stops every other one: exactly the rest fire, each once with its own
// tag, and the heap stays ordered through the removals and expiries.
func TestRealClockManyTimers(t *testing.T) {
	const n = 200
	base := pendingTimers(t)
	rng := rand.New(rand.NewSource(1))
	fired := make(tagRecorder, n)
	timers := make([]Timer, n)
	for i, p := range rng.Perm(n) {
		timers[i] = RealClock{}.Arm(time.Duration(1+p%50)*time.Millisecond, fired, uint64(i))
	}
	for i := 0; i < n; i += 2 {
		if !timers[i].Stop() {
			t.Fatalf("Stop on pending timer %d should report true", i)
		}
	}
	pendingTimers(t)
	seen := make(map[uint64]int)
	deadline := time.After(10 * time.Second)
	for len(seen) < n/2 {
		select {
		case tag := <-fired:
			seen[tag]++
			if tag%2 == 0 {
				t.Errorf("stopped timer %d fired", tag)
			}
			if seen[tag] > 1 {
				t.Errorf("timer %d fired %d times", tag, seen[tag])
			}
		case <-deadline:
			t.Fatalf("%d of %d running timers fired", len(seen), n/2)
		}
	}
	select {
	case tag := <-fired:
		t.Errorf("extra Fire(%d) after every running timer fired", tag)
	case <-time.After(60 * time.Millisecond):
	}
	if got := pendingTimers(t); got != base {
		t.Errorf("%d timers pending after the run, want %d", got, base)
	}
}

// TestRealClockStaleHandle reuses a fired timer's entry for a new timer:
// the old handle must not reach it.
func TestRealClockStaleHandle(t *testing.T) {
	fired := make(tagRecorder, 4)
	old := RealClock{}.Arm(time.Millisecond, fired, 1)
	expectFire(t, fired, 1, 0)
	fresh := RealClock{}.Arm(time.Hour, fired, 2)
	if fresh.id != old.id {
		t.Fatalf("new timer took entry %d, want the fired timer's entry %d", fresh.id, old.id)
	}
	if old.Stop() {
		t.Error("Stop on a fired timer's handle should report false")
	}
	if old.Reset(time.Hour) {
		t.Error("Reset on a fired timer's handle should report false")
	}
	if !old.Stop() {
		t.Error("the handle's re-armed timer should be pending")
	}
	if !fresh.Stop() {
		t.Error("the entry's new timer should still be pending")
	}
}
