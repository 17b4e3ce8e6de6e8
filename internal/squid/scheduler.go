package squid

import (
	"sync"
	"time"

	"squid/internal/chord"
	"squid/internal/keyspace"
	"squid/internal/sfc"
	"squid/internal/transport"
)

// scheduler runs the CPU-heavy half of query handling — Hilbert refinement
// and local store matching — on a bounded worker pool, so one expensive
// wildcard query no longer head-of-line-blocks every other message on the
// node's delivery goroutine.
//
// The concurrency contract (DESIGN.md §4g):
//
//   - Jobs are submitted only from the delivery goroutine, which captures
//     an immutable arcView of the node's owned arc at submit time. Workers
//     read only that snapshot, the Store (whose readers are lock-protected)
//     and the immutable keyword space — never live engine or node state.
//   - A worker writes its outcome into the job and queues the job on the
//     completion FIFO; the worker whose push makes that FIFO non-empty
//     posts one drain to the delivery goroutine via node.Invoke, and the
//     drain hands every queued job, in order, with its subtree to
//     Engine.resolved — so a burst of completions costs one self-send,
//     and all engine/subtree mutation stays confined to the delivery
//     goroutine. A worker never reads the subtree: it rebuilds the query
//     region in its own RegionBuf. Self-sends are exempt from fault
//     injection, so a drain can only fail to post if the node itself died
//     — in which case the posting worker runs finish() for every queued
//     job, keeping the pending count exact for the simulator's quiesce
//     protocol.
//   - Admission control: at most cap jobs may be admitted-but-unfinished;
//     beyond that trySubmit refuses and the caller sheds the work with
//     ErrOverloaded instead of queueing without bound.
//
// A stale arcView is harmless for the same reason a stale probe-cache
// entry is: the store only holds keys the node owns, scans of handed-over
// spans find nothing, and clusters misclassified as remote are re-routed
// by the ring to the current owner, which re-probes through the ring.
type scheduler struct {
	e       *Engine
	workers int
	cap     int

	mu       sync.Mutex
	jobsCond *sync.Cond                 // signaled when queue gains a job (workers wait here)
	idleCond *sync.Cond                 // broadcast when pending returns to zero (waitIdle)
	queue    transport.FIFO[*refineJob] //lint:guarded-by mu
	// done holds jobs whose worker finished refining, awaiting the drain.
	done transport.FIFO[*refineJob] //lint:guarded-by mu
	// pending counts admitted jobs whose completion has not yet run.
	pending int //lint:guarded-by mu
	// started flips when the workers are spawned (lazily, on first submit).
	started bool //lint:guarded-by mu
	// drainFn is drain bound once, so posting it allocates nothing.
	drainFn func()
}

// refineJob carries one batch of clusters from the delivery goroutine to a
// worker, and its outcome back to the subtree st. Jobs come from the
// refineJobs pool on the delivery goroutine and go back there once the
// drain has run resolved (giveBack); the worker touches a job only before
// it queues it on the completion FIFO.
type refineJob struct {
	st       *subtree // delivery goroutine only: the worker passes it through
	qid      QueryID
	q        keyspace.Query
	clusters []sfc.Refined
	arc      arcView
	enqueued time.Time // registry clock; zero (and wait reads 0) in simulation

	// The outcome, written by the worker: the local matches, the clusters
	// to forward and the number resolved here.
	matches []Element
	remote  []sfc.Refined
	local   int
}

// arcView is the immutable snapshot of the arc (pred, self] a node owned
// at submit time, which a worker classifies clusters against.
type arcView struct {
	space      chord.Space
	pred, self chord.NodeRef
	maxIdx     uint64
}

func (a arcView) owns(key uint64) bool { return a.space.InArc(chord.ID(key), a.pred, a.self) }

// runEnd returns the last index of the contiguous owned run containing lo
// (which must be owned): up to the node's identifier for the low/linear
// segment, or the top of the index space when lo lies in the wrap segment
// of an arc that crosses zero.
func (a arcView) runEnd(lo uint64) uint64 {
	if a.pred.IsZero() || lo > uint64(a.self.ID) {
		return a.maxIdx
	}
	return uint64(a.self.ID)
}

// arcView snapshots the node's current arc; delivery goroutine only.
func (e *Engine) arcView() arcView {
	maxIdx := ^uint64(0)
	if b := e.space.IndexBits(); b < 64 {
		maxIdx = (uint64(1) << b) - 1
	}
	return arcView{space: e.node.Space(), pred: e.node.Pred(), self: e.node.Self(), maxIdx: maxIdx}
}

func newScheduler(e *Engine, workers, cap int) *scheduler {
	s := &scheduler{e: e, workers: workers, cap: cap}
	s.jobsCond = sync.NewCond(&s.mu)
	s.idleCond = sync.NewCond(&s.mu)
	s.drainFn = s.drain
	return s
}

// trySubmit admits a job unless the in-flight cap is reached; it never
// blocks (the queue is a slice, not a bounded channel, so very large caps —
// the simulator runs effectively uncapped — cost nothing up front).
// Delivery goroutine only.
func (s *scheduler) trySubmit(j *refineJob) bool {
	s.mu.Lock()
	if s.pending >= s.cap {
		s.mu.Unlock()
		return false
	}
	s.pending++
	depth := s.pending
	s.queue.Push(j)
	if !s.started {
		s.started = true
		for i := 0; i < s.workers; i++ {
			go s.worker()
		}
	}
	s.jobsCond.Signal()
	s.mu.Unlock()
	s.e.met.schedDepth.Set(int64(depth))
	return true
}

// next blocks until a job is queued and pops it (FIFO: submission order is
// processing order, the scheduling fairness the tests pin).
func (s *scheduler) next() *refineJob {
	s.mu.Lock()
	for s.queue.Len() == 0 {
		s.jobsCond.Wait()
	}
	j := s.queue.Pop()
	s.mu.Unlock()
	return j
}

// finish retires one admitted job. It runs on the delivery goroutine for
// live nodes (inside the drain), or synchronously in the worker when the
// node is already detached — either way exactly once per job.
func (s *scheduler) finish() {
	s.mu.Lock()
	s.pending--
	depth := s.pending
	if s.pending == 0 {
		s.idleCond.Broadcast()
	}
	s.mu.Unlock()
	s.e.met.schedDepth.Set(int64(depth))
}

// waitIdle blocks until no admitted job is outstanding. Used by the
// simulator's quiesce protocol; safe from any goroutine.
func (s *scheduler) waitIdle() {
	s.mu.Lock()
	for s.pending > 0 {
		s.idleCond.Wait()
	}
	s.mu.Unlock()
}

// depth returns the number of admitted-but-unfinished jobs.
func (s *scheduler) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// worker refines queued jobs with its own region buffer and refinement
// scratch (the per-worker counterpart of the engine's zero-alloc buffers).
func (s *scheduler) worker() {
	var rbuf keyspace.RegionBuf
	var scratch sfc.Scratch
	var frontier []sfc.Refined
	e := s.e
	for {
		j := s.next()
		e.met.schedWait.Observe(int64(e.opts.Telemetry.Since(j.enqueued)))
		// The delivery goroutine built this query's region before it
		// submitted the job, so rebuilding it cannot fail.
		region, _ := e.space.RegionInto(j.q, &rbuf)
		j.matches, j.remote, j.local, frontier = refineClusters(
			e.store, e.space, j.arc, j.qid, j.clusters, j.q, region, &scratch, frontier)
		s.complete(j)
	}
}

// complete queues a refined job for the drain, posting the drain if the
// queue was empty: a drain already posted takes every job queued before it
// runs.
func (s *scheduler) complete(j *refineJob) {
	s.mu.Lock()
	s.done.Push(j)
	first := s.done.Len() == 1
	s.mu.Unlock()
	if !first {
		return
	}
	if err := s.e.node.Invoke(s.drainFn); err == nil {
		return
	}
	// Node detached: its queries died with it. Retire every queued job,
	// as the drain would have; one queued later posts, fails and retires
	// itself.
	for s.popDone() != nil {
		s.finish()
	}
}

// popDone pops the next job awaiting the drain, or nil.
func (s *scheduler) popDone() *refineJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done.Len() == 0 {
		return nil
	}
	return s.done.Pop()
}

// drain hands every refined job to resolved in completion order, then
// returns it to its pool and retires it.
//
//lint:entry delivery
func (s *scheduler) drain() {
	e := s.e
	for j := s.popDone(); j != nil; j = s.popDone() {
		e.resolved(j.st, j.matches, j.remote, j.local)
		giveBack(e, &refineJobs, j, j.st)
		s.finish()
	}
}

// scanBufs and remoteBufs hold the buffers refineClusters collects
// matches and forwarded clusters into. One process-wide pool each rather
// than a buffer per worker or per engine: a ring of many members would
// otherwise keep one grown buffer alive per worker.
var (
	scanBufs   = sync.Pool{New: func() any { return new([]Element) }}
	remoteBufs = sync.Pool{New: func() any { return new([]sfc.Refined) }}
)

// refineClusters is processClusters detached from live engine state: it
// resolves the locally owned parts of cls against store and collects the
// parts to forward, classifying ownership against the arc snapshot. It is
// pure with respect to the engine — safe on any goroutine — and returns
// the (reusable) frontier stack to its caller. See Engine.processClusters
// for the run-boundary rationale.
//
// Matches and forwarded clusters are collected in pooled buffers and each
// copied out once into an exactly-sized slice (nil when empty), which the
// caller owns: it may send the matches as they are and sort the remote
// clusters in place.
func refineClusters(store *Store, space *keyspace.Space, arc arcView, qid QueryID, cls []sfc.Refined, q keyspace.Query, region sfc.Region, scratch *sfc.Scratch, frontier []sfc.Refined) (matches []Element, remote []sfc.Refined, local int, frontierOut []sfc.Refined) {
	buf := scanBufs.Get().(*[]Element)
	scan := (*buf)[:0]
	rbuf := remoteBufs.Get().(*[]sfc.Refined)
	rem := (*rbuf)[:0]
	curve := space.Curve()
	frontier = frontier[:0]
	for _, c := range cls {
		if !arc.owns(c.Span(curve).Lo) {
			rem = append(rem, c)
			continue
		}
		local++
		frontier = append(frontier, c)
	}
	for len(frontier) > 0 {
		x := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		span := x.Span(curve)
		if !arc.owns(span.Lo) {
			rem = append(rem, x)
			continue
		}
		if span.Hi <= arc.runEnd(span.Lo) {
			if debugScan != nil {
				debugScan(arc.self.ID, qid, span)
			}
			// The store holds only keys this node owns; the final filter
			// applies the query's exact semantics (paper: only elements
			// matching all terms are returned).
			store.ScanSpan(span, func(_ uint64, elem Element) {
				if space.Matches(q, elem.Values) {
					scan = append(scan, elem)
				}
			})
			continue
		}
		// Starts inside the owned run but extends beyond it: refine (with
		// region pruning) and reclassify the children.
		frontier = sfc.RefineStepInto(frontier, curve, x.Cluster, region, scratch)
	}
	if len(scan) > 0 {
		matches = make([]Element, len(scan))
		copy(matches, scan)
	}
	if len(rem) > 0 {
		remote = make([]sfc.Refined, len(rem))
		copy(remote, rem)
	}
	// Drop the buffer's references to stored elements before pooling it.
	clear(scan)
	*buf = scan[:0]
	scanBufs.Put(buf)
	*rbuf = rem[:0]
	remoteBufs.Put(rbuf)
	return matches, remote, local, frontier[:0]
}
