package squid

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"squid/internal/chord"
	"squid/internal/keyspace"
	"squid/internal/transport"
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

// drainRig is one engine with two workers on a single-member ring over
// the in-process transport. It counts the self-sends the node makes: on a
// ring of one, every one is an Invoke.
type drainRig struct {
	net   *transport.Inproc
	eng   *Engine
	node  *chord.Node
	self  transport.Addr
	sends atomic.Int64
}

func newDrainRig(t *testing.T, space *keyspace.Space, elems []Element) *drainRig {
	t.Helper()
	r := &drainRig{net: transport.NewInproc(), self: "drain-1"}
	r.net.SetObserver(func(from, to transport.Addr, _ any) {
		if from == to && from == r.self {
			r.sends.Add(1)
		}
	})
	r.eng = New(space, WithWorkers(2), WithMaxInflight(1<<10))
	r.node = chord.NewNode(chord.Config{Space: chord.Space{Bits: space.IndexBits()}}, chord.ID(1), r.eng)
	r.eng.Attach(r.node)
	ep, err := r.net.Listen(r.self, r.node)
	if err != nil {
		t.Fatal(err)
	}
	r.node.Start(ep)
	r.invoke(t, func() {
		r.node.Create()
		if err := r.eng.StoreDirectBatch(elems); err != nil {
			t.Error(err)
		}
	})
	return r
}

// invoke runs fn on the node's delivery goroutine and waits for it.
func (r *drainRig) invoke(t *testing.T, fn func()) {
	t.Helper()
	done := make(chan struct{})
	if err := r.node.Invoke(func() { fn(); close(done) }); err != nil {
		t.Fatal(err)
	}
	<-done
}

// completed returns the number of jobs queued for the drain.
func (s *scheduler) completed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done.Len()
}

// TestSchedulerCompletionDrain bursts refinement jobs at a two-worker
// scheduler while the delivery goroutine is busy: every job is resolved
// once (each query gets its exact answer), the whole burst comes back
// through one drain instead of one Invoke per job, and the engine's
// bookkeeping and scheduler depth read 0 at idle. On a detached node the
// drain cannot be posted, and the workers retire the jobs themselves, so
// WaitIdle still returns.
func TestSchedulerCompletionDrain(t *testing.T) {
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	letters := "abcdefghijklmnop"
	word := func() string {
		b := make([]byte, 3+rng.Intn(4))
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		return string(b)
	}
	var elems []Element
	for i := 0; i < 400; i++ {
		elems = append(elems, Element{Values: []string{word(), word()}, Data: fmt.Sprintf("drain-%03d", i)})
	}
	queries := []keyspace.Query{
		keyspace.MustParse("(*, *)"),
		keyspace.MustParse("(a*, *)"),
		keyspace.MustParse("(*, b-f)"),
		keyspace.MustParse("(c*, d*)"),
	}
	want := make([]int, len(queries))
	for i, q := range queries {
		for _, e := range elems {
			if space.Matches(q, e.Values) {
				want[i]++
			}
		}
	}

	// burst starts perQuery copies of every query in one delivery and
	// holds the delivery goroutine until every job it admitted has been
	// refined, so the completions pile up behind it. It returns the
	// number of jobs and a channel of the answers.
	const perQuery = 16
	burst := func(r *drainRig) (int, chan error) {
		results := make(chan error, perQuery*len(queries))
		jobs := 0
		r.invoke(t, func() {
			for k := 0; k < perQuery; k++ {
				for i, q := range queries {
					r.eng.Query(q, func(res Result) {
						switch {
						case res.Err != nil:
							results <- res.Err
						case len(res.Matches) != want[i]:
							results <- fmt.Errorf("%s: %d matches, want %d", q, len(res.Matches), want[i])
						default:
							results <- nil
						}
					})
				}
			}
			jobs = r.eng.sched.depth()
			for r.eng.sched.completed() < jobs {
				time.Sleep(time.Millisecond)
			}
		})
		return jobs, results
	}

	r := newDrainRig(t, space, elems)
	before := r.sends.Load()
	jobs, results := burst(r)
	for range perQuery * len(queries) {
		select {
		case err := <-results:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a query of the burst never answered")
		}
	}
	r.net.Quiesce()
	r.eng.WaitIdle()
	// One self-send is the test's own invoke; the rest are drains.
	drains := r.sends.Load() - before - 1
	t.Logf("%d jobs, %d drains", jobs, drains)
	if jobs < perQuery*len(queries) || drains >= int64(jobs) {
		t.Errorf("%d jobs came back through %d drains, want fewer drains than jobs", jobs, drains)
	}
	r.invoke(t, func() {
		if n := r.eng.HeldBookkeeping(); n != 0 {
			t.Errorf("HeldBookkeeping = %d at idle, want 0", n)
		}
		if n := r.eng.sched.depth(); n != 0 {
			t.Errorf("scheduler depth = %d at idle, want 0", n)
		}
	})

	// A node detached before its burst completes: every drain post
	// fails, and the workers retire what they refined.
	d := newDrainRig(t, space, elems)
	d.invoke(t, func() {
		d.net.Kill(d.self)
		for _, q := range queries {
			d.eng.Query(q, func(Result) {})
		}
	})
	idle := make(chan struct{})
	go func() { d.eng.WaitIdle(); close(idle) }()
	select {
	case <-idle:
	case <-time.After(10 * time.Second):
		t.Fatalf("WaitIdle on a detached node never returned: depth %d", d.eng.sched.depth())
	}
}
