package squid

import (
	"testing"

	"squid/internal/keyspace"
)

// TestSchedulerQueueLockstepAllocFree submits one job at a time and pops
// it before the next, so the scheduler's queue fills and drains on every
// job. The queue keeps its array: once warm, the cycle allocates nothing.
func TestSchedulerQueueLockstepAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(space, Options{})
	e.met = newEngineMetrics(e.opts.Telemetry, 1)
	s := newScheduler(e, 1, 1<<20)
	s.started = true // no workers: the test pops in their place
	j := &refineJob{}
	cycle := func() {
		if !s.trySubmit(j) {
			t.Fatal("job refused below the cap")
		}
		if got := s.next(); got != j {
			t.Fatalf("popped %p, want %p", got, j)
		}
		s.finish()
	}
	cycle() // warm-up: grow the queue's array
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("lockstep submit and pop: %.2f allocs per job, want 0", n)
	}
}
