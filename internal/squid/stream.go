package squid

import (
	"context"
	"encoding/base64"
	"fmt"
	"slices"
	"sync"

	"squid/internal/keyspace"
	"squid/internal/transport"
	"squid/internal/wire"
)

// QueryOption tunes one streaming query (as opposed to Option, which tunes
// the whole engine).
type QueryOption func(*queryConfig)

type queryConfig struct {
	limit     int
	cursorQ   keyspace.Query // the query a decoded cursor was taken on
	afterPos  uint64
	afterSkip int
	hasPos    bool
	exhausted bool
}

// Limit stops the query after k matches have been delivered: the stream
// completes early and every outstanding subtree is torn down with
// QueryCancelMsg, so the long tail of refinement messages is never sent.
// k <= 0 means unlimited.
//
// A limited stream delivers in curve order: matches are held back until
// every lower curve span has resolved, so the k delivered matches are the
// k lowest undelivered positions and the resume cursor advances strictly
// page over page (unlimited streams deliver in completion order instead,
// trading order for latency).
//
// The subtrees of a limited stream send it no more than the page needs:
// each subtree's report is cut to the lowest k + skip + 1 matches at or
// past the cursor's position (skip: the elements there already
// delivered), which leaves the page and its resume cursor exactly as the
// full report would (see ClusterQueryMsg.Keep).
func Limit(k int) QueryOption {
	return func(c *queryConfig) { c.limit = k }
}

// WithCursor resumes a query from a cursor taken on an earlier stream over
// the same query: refinement restarts at the cursor's curve position,
// skipping clusters that were already fully delivered. Matches at or past
// the position that had already been delivered when the cursor was taken
// may be delivered again (at-least-once pagination); deduplicate pages with
// Dedup when that matters. A cursor taken on a different query is refused:
// the stream does not start and QueryStream/QueryStreamFunc return an
// error. An undecodable cursor is ignored; an exhausted one yields an
// immediately-done empty stream.
func WithCursor(cur Cursor) QueryOption {
	return func(c *queryConfig) {
		st, err := cur.decode()
		if err != nil {
			return
		}
		c.cursorQ = st.q
		if st.exhausted {
			c.exhausted = true
			return
		}
		c.afterPos = st.pos
		c.afterSkip = st.skip
		c.hasPos = true
	}
}

// Cursor is an opaque, resumable position in a query's result stream,
// keyed on curve position: it captures the query, the lowest curve index
// whose results had not been fully delivered when the stream ended, and —
// because distinct elements can share a curve index (identical keyword
// tuples) — how many elements at that index were already delivered, in
// their owner's stable store order. Feed it back via WithCursor, with the
// same query, to continue a browsing-style iteration where the previous
// page stopped; the captured query is what lets WithCursor refuse a
// cursor handed to another query.
type Cursor string

// cursorState is the decoded form: version-tagged so the format can evolve.
type cursorState struct {
	q         keyspace.Query
	pos       uint64
	skip      int // elements at pos already delivered (store order)
	exhausted bool
}

const cursorVersion = 1

func encodeCursor(q keyspace.Query, pos uint64, skip int, exhausted bool) Cursor {
	var e wire.Encoder
	e.Uvarint(cursorVersion)
	e.Bool(exhausted)
	e.U64(pos)
	e.Uvarint(uint64(skip))
	e.Uvarint(uint64(len(q)))
	for _, t := range q {
		e.Uvarint(uint64(t.Kind))
		e.String(t.Value)
		e.String(t.Lo)
		e.String(t.Hi)
	}
	return Cursor(base64.RawURLEncoding.EncodeToString(e.Bytes()))
}

func (c Cursor) decode() (cursorState, error) {
	raw, err := base64.RawURLEncoding.DecodeString(string(c))
	if err != nil {
		return cursorState{}, fmt.Errorf("squid: bad cursor: %w", err)
	}
	d := wire.NewDecoder(raw)
	if v := d.Uvarint(); v != cursorVersion {
		return cursorState{}, fmt.Errorf("squid: bad cursor: unknown version %d", v)
	}
	var st cursorState
	st.exhausted = d.Bool()
	st.pos = d.U64()
	st.skip = int(d.Uvarint())
	n := d.Len(4)
	for i := 0; i < n; i++ {
		var t keyspace.Term
		t.Kind = keyspace.TermKind(d.Uvarint())
		t.Value = d.String()
		t.Lo = d.String()
		t.Hi = d.String()
		st.q = append(st.q, t)
	}
	if err := d.Close(); err != nil {
		return cursorState{}, fmt.Errorf("squid: bad cursor: %w", err)
	}
	return st, nil
}

// Exhausted reports whether the cursor marks a fully delivered stream:
// resuming from it yields an empty, immediately-done stream.
func (c Cursor) Exhausted() bool {
	st, err := c.decode()
	return err == nil && st.exhausted
}

// StreamEvent is one delivery of a streaming query: a batch of fresh
// matches, or the terminal event (Done true) carrying the stream's error
// and resume cursor. An unlimited stream's batches arrive in
// subtree-completion order; a Limit(k) stream's arrive in curve order.
type StreamEvent struct {
	QID     QueryID
	Matches []Element
	Done    bool
	Err     error
	Cursor  Cursor
}

// streamSink receives a root subtree's deliveries on the node's delivery
// goroutine. ResultStream bridges them to a consumer goroutine; funcSink
// hands them to a callback in place (the simulators' deterministic path);
// collector gathers them into Query's one Result. finishStream gets the
// finished root, so only a sink that hands out a cursor derives one.
type streamSink interface {
	pushBatch(qid QueryID, batch []Element)
	finishStream(root *subtree, err error)
}

// funcSink adapts a StreamEvent callback to the streamSink contract.
type funcSink func(StreamEvent)

func (f funcSink) pushBatch(qid QueryID, batch []Element) {
	f(StreamEvent{QID: qid, Matches: batch})
}

func (f funcSink) finishStream(root *subtree, err error) {
	f(StreamEvent{QID: root.qid, Done: true, Err: err, Cursor: root.rootCursor()})
}

// collector is the sink of a collecting root (Engine.collect), and holds
// that root, so a collected query allocates one object for both: it
// gathers the stream's batches and hands them to cb as one Result.
type collector struct {
	root    subtree
	matches []Element
	cb      func(Result)
}

// pushBatch adopts the first batch rather than copying it, clipped to its
// length: another holder (a result-cache entry sent to many parents) may
// share its backing array, so the next append must reallocate rather than
// write into spare capacity.
func (c *collector) pushBatch(_ QueryID, batch []Element) {
	if len(c.matches) == 0 {
		c.matches = batch[:len(batch):len(batch)]
		return
	}
	c.matches = append(c.matches, batch...)
}

func (c *collector) finishStream(root *subtree, err error) {
	c.cb(Result{QID: root.qid, Query: root.q, Matches: c.matches, Err: err})
}

// ResultStream is the consumer side of QueryStream: partial result batches
// flow in as subtrees of the refinement tree complete, and the consumer
// pulls them with Next from any goroutine. The engine never blocks on a
// slow consumer — batches buffer inside the stream.
type ResultStream struct {
	qid QueryID
	q   keyspace.Query

	mu      sync.Mutex
	cond    *sync.Cond
	batches transport.FIFO[[]Element]
	total   int
	done    bool
	err     error
	cursor  Cursor
	cancel  context.CancelFunc
}

func newResultStream(qid QueryID, q keyspace.Query, cancel context.CancelFunc) *ResultStream {
	s := &ResultStream{qid: qid, q: q, cancel: cancel}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// QID returns the stream's query identifier (for metrics and traces).
func (s *ResultStream) QID() QueryID { return s.qid }

// Next blocks until the next batch of matches is available and returns it;
// ok is false once the stream has completed and every batch was consumed.
// Batches are never empty.
func (s *ResultStream) Next() (batch []Element, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.batches.Len() == 0 && !s.done {
		s.cond.Wait()
	}
	if s.batches.Len() == 0 {
		return nil, false
	}
	return s.batches.Pop(), true
}

// Err returns the stream's terminal error: nil for a complete result set,
// ErrPartialResult when subtrees were lost to failures, or the context's
// error when the query was cancelled. Valid once Next has returned false
// (it reports the current state before then).
func (s *ResultStream) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Cursor returns the stream's resume cursor: after early termination
// (Limit reached, context cancelled or past its deadline) it marks where
// refinement was cut so a follow-up query continues from there; after a
// partial result it marks the lowest position lost with a subtree, so a
// follow-up query retries what was lost; after full delivery it is
// exhausted. Empty until the stream completes.
func (s *ResultStream) Cursor() Cursor {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cursor
}

// pushBatch implements streamSink (delivery goroutine side).
func (s *ResultStream) pushBatch(_ QueryID, batch []Element) {
	s.mu.Lock()
	s.batches.Push(batch)
	s.total += len(batch)
	s.mu.Unlock()
	s.cond.Broadcast()
}

// finishStream implements streamSink (delivery goroutine side). The
// stream's derived context is released here so a fully consumed stream
// does not pin its parent context's cancellation list.
func (s *ResultStream) finishStream(root *subtree, err error) {
	cur := root.rootCursor()
	s.mu.Lock()
	s.done = true
	s.err = err
	s.cursor = cur
	s.mu.Unlock()
	s.cond.Broadcast()
	if s.cancel != nil {
		s.cancel()
	}
}

// QueryStream resolves a flexible query as a stream: partial results are
// delivered to the returned ResultStream as subtrees of the refinement
// tree complete, instead of one terminal callback with the assembled set.
// An unlimited stream delivers exactly the match set Query would; Limit(k)
// additionally terminates early after k matches, cancelling outstanding
// subtrees so their refinement traffic is never sent, and WithCursor
// resumes a previous stream's position for browsing-style iteration.
//
// When ctx ends before the query completes, outstanding child subtrees are
// cancelled exactly as on a QueryDeadline expiry and the stream finishes
// with ctx's error, so a ctx deadline bounds the query even when it is
// shorter than the engine's QueryDeadline.
//
// A non-nil error means the query was not started: the query was invalid,
// ctx was already done, the cursor was taken on a different query, or the
// engine shed the query under admission control (errors.Is ErrOverloaded;
// the *OverloadError carries a retry-after hint). Like all engine entry
// points, call it from App upcalls or through node.Invoke; the returned
// stream itself may then be consumed from any goroutine.
//
//lint:entry delivery
func (e *Engine) QueryStream(ctx context.Context, q keyspace.Query, opts ...QueryOption) (*ResultStream, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	qid := nextQID()
	s := newResultStream(qid, q, cancel)
	if err := e.queryStream(ctx, qid, q, s, opts...); err != nil {
		cancel()
		return nil, err
	}
	return s, nil
}

// QueryStreamFunc is QueryStream with callback delivery: every event —
// match batches, then exactly one Done — fires on the node's delivery
// goroutine, which keeps streaming consumable inside the simulators'
// deterministic event loops (a ResultStream consumer needs its own
// goroutine; a funcSink does not). Cancel mid-stream with CancelQuery or
// through ctx. A non-nil error means the query was not started and deliver
// will never fire.
//
//lint:entry delivery
func (e *Engine) QueryStreamFunc(ctx context.Context, q keyspace.Query, deliver func(StreamEvent), opts ...QueryOption) (QueryID, error) {
	qid := nextQID()
	return qid, e.queryStream(ctx, qid, q, funcSink(deliver), opts...)
}

// queryStream is the shared streaming root: configure the subtree, start
// it, surface start failures synchronously.
func (e *Engine) queryStream(ctx context.Context, qid QueryID, q keyspace.Query, sink streamSink, opts ...QueryOption) error {
	var cfg queryConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	e.met.queries.Inc()
	e.met.streams.Inc()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if (cfg.hasPos || cfg.exhausted) && !slices.Equal(cfg.cursorQ, q) {
		return fmt.Errorf("squid: cursor was taken on %s, not %s", cfg.cursorQ, q)
	}
	st := streamRoot(qid, q, sink, cfg)
	if cfg.exhausted {
		// Resuming past the end: an empty, already-done stream.
		st.dispatched = true
		e.sampleRoot(&st)
		e.finishSubtree(&st)
		return nil
	}
	return e.startRoot(ctx, q, &st)
}

// streamRoot builds the root subtree of a streaming query. A limited root
// caps its subtrees' replies at k + skip + 1 matches from its cursor's
// position (ClusterQueryMsg.Keep): the page, the boundary run the root
// filters out again, and one more, whose coordinate the page's cut takes.
// It returns the subtree by value, so a collector can hold its root in
// place.
func streamRoot(qid QueryID, q keyspace.Query, sink streamSink, cfg queryConfig) subtree {
	st := subtree{
		qid: qid, q: q, kind: "root",
		stream: sink, limit: cfg.limit,
		afterPos: cfg.afterPos, afterSkip: cfg.afterSkip, hasPos: cfg.hasPos,
	}
	if cfg.limit > 0 {
		st.keep, st.from = cfg.limit+cfg.afterSkip+1, cfg.afterPos
	}
	return st
}

// CancelQuery cancels a query rooted at this engine before it completes:
// outstanding remote subtrees are torn down with QueryCancelMsg, and the
// query finishes with context.Canceled and what it had delivered (Query's
// callback gets every match gathered so far). Reports whether the query
// was found still in flight. Like all engine entry points, call it from App
// upcalls or through node.Invoke.
//
//lint:entry delivery
func (e *Engine) CancelQuery(qid QueryID) bool {
	st, ok := e.roots[qid]
	if !ok || st.finished {
		return false
	}
	e.cancelQuery(st, context.Canceled)
	return true
}
