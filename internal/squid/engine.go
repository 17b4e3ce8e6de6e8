package squid

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"squid/internal/chord"
	"squid/internal/keyspace"
	"squid/internal/sfc"
	"squid/internal/telemetry"
	"squid/internal/transport"
)

// MetricsSink observes query processing for experiment accounting. The
// paper's per-query metrics (processing nodes, data nodes, matches) are
// produced by a sink shared across the simulated network; pass nil to
// disable. Implementations must be safe for concurrent use (engines of
// different nodes run in different goroutines).
type MetricsSink interface {
	// Processed records that a node processed clusters of query qid and
	// found the given number of matching elements there.
	Processed(qid QueryID, node chord.ID, clusters, matches int)
}

// Options tunes an Engine.
type Options struct {
	// DisableAggregation turns off the paper's second query optimization
	// (sibling clusters batched per owner via a probe handshake); each
	// remote cluster is then routed in its own message. For the ablation
	// benchmark.
	DisableAggregation bool
	// InitialClusters caps how many clusters the initiator computes
	// locally before dispatching (the first levels of the refinement
	// tree). Defaults to 2^d — one refinement step, as in the paper's
	// Fig. 7 root.
	InitialClusters int
	// ProbeCacheSize enables caching of owner-probe results at the query
	// root (0 disables): repeated queries over popular regions skip the
	// FindSuccessor handshake — the hot-spot mitigation the paper lists as
	// future work. Stale entries are harmless: a mis-directed batch is
	// re-dispatched by its receiver, which always probes through the ring.
	ProbeCacheSize int
	// ResultCacheSize bounds the popular-cluster result cache (0 disables):
	// leaf subtrees — cluster batches resolved entirely against the local
	// store — are remembered by (query, cluster set), so Zipf-popular repeat
	// queries skip refinement and scanning. Entries are invalidated by the
	// engine's mutation signal the moment a covered index mutates; see
	// resultcache.go for why only leaves are cached.
	ResultCacheSize int
	// Replicas is the number of successor copies kept of every stored
	// item (0 disables replication). With r replicas the system tolerates
	// up to r simultaneous adjacent-node failures without losing data,
	// provided PushReplicas runs between failures.
	Replicas int
	// Sink receives per-query processing metrics; may be nil.
	Sink MetricsSink
	// SubtreeTimeout arms a recovery deadline on every dispatched child
	// subtree of a query. A child that has not replied within
	// SubtreeTimeout of its dispatch is re-dispatched through ring routing,
	// which resolves to the *current* owner — after a crash that is the
	// dead node's successor, which holds promoted replicas when
	// Replicas > 0.
	// 0 disables recovery tracking entirely (the simulator's quiesce-based
	// experiments rely on exact message counts).
	SubtreeTimeout time.Duration
	// SubtreeRetries caps re-dispatches per child subtree; once exhausted
	// the child is abandoned and the query degrades to an explicit partial
	// result. Defaults to 3 when SubtreeTimeout > 0.
	SubtreeRetries int
	// QueryDeadline bounds a whole query at its root: on expiry the
	// callback fires once with every match gathered so far and
	// Err = ErrPartialResult. 0 disables; queries then complete only via
	// subtree accounting.
	QueryDeadline time.Duration
	// Workers sizes the query scheduler's worker pool: the goroutines that
	// run Hilbert refinement and local matching off the delivery
	// goroutine, so an expensive wildcard query cannot head-of-line-block
	// the node's message processing. 0 picks a default (GOMAXPROCS,
	// clamped to [2, 8]); < 0 disables the pool and refines inline on the
	// delivery goroutine (the pre-scheduler serial behavior, kept as the
	// ablation baseline).
	Workers int
	// MaxInflight caps refinement jobs admitted but not yet completed on
	// this node. Beyond the cap the engine sheds: a root query fails fast
	// with ErrOverloaded, a remote subtree is refused with a QueryShedMsg
	// and retried by its dispatcher through the recovery path. 0 defaults
	// to max(64, 16*workers); ignored in serial mode.
	MaxInflight int
	// Telemetry receives the engine's metrics as per-node labeled children.
	// Nil gets a private clock-less registry so instrumentation has one
	// code path; share one registry across node and engine to scrape both.
	Telemetry *telemetry.Registry
	// Traces enables query tracing at this node: every query rooted here is
	// sampled, its refinement hops record spans that flow back up the query
	// tree, and the reassembled tree lands in the store on completion. Nil
	// disables sampling for queries rooted here (subtrees of queries rooted
	// at tracing peers are still recorded and shipped up).
	Traces *telemetry.TraceStore
	// Clock supplies the engine's recovery and deadline timers (subtree
	// re-dispatch, overall query deadline). Nil uses the wall clock's
	// deadline heap (transport.RealClock); the discrete-event simulator
	// injects its virtual clock so recovery runs in virtual time.
	Clock transport.Clock
}

// ErrPartialResult marks a Result gathered under failures: some subtree of
// the query's refinement tree was lost and re-dispatch retries were
// exhausted (or the query deadline expired). Matches are still sound —
// every returned element matches the query — but the set may be missing
// elements held by unreachable nodes.
var ErrPartialResult = errors.New("squid: partial result: query subtree lost to failures")

// Result is the outcome of a flexible query: every stored element matching
// the query, gathered from all data nodes.
type Result struct {
	QID     QueryID
	Query   keyspace.Query
	Matches []Element
	Err     error
}

// qidCounter issues process-wide unique query identifiers (results are
// correlated per initiating engine, but metrics need global uniqueness).
var qidCounter atomic.Uint64

func nextQID() QueryID { return QueryID(qidCounter.Add(1)) }

// Engine is the Squid application attached to one chord node. Like the
// node, its state is confined to the node's delivery goroutine: call
// Publish/Query from App upcalls or through node.Invoke.
type Engine struct {
	space    *keyspace.Space
	store    *Store
	replicas *Store
	node     *chord.Node
	opts     Options

	children map[uint64]*childCall //lint:confine delivery
	// roots tracks in-flight queries rooted here; inbound tracks in-flight
	// remote subtrees for cancel teardown.
	roots     map[QueryID]*subtree    //lint:confine delivery
	inbound   map[inboundKey]*subtree //lint:confine delivery
	nextToken uint64                  //lint:confine delivery
	arcCache  []cachedArc             //lint:confine delivery
	rcache    *resultCache            // nil unless Options.ResultCacheSize > 0
	met       engineMetrics
	spanSeq   uint64     //lint:confine delivery
	sched     *scheduler // nil in serial mode (Options.Workers < 0)
	// held counts the pooled bookkeeping this engine has taken and not
	// given back: remote subtrees, child calls, dispatch rounds and
	// refinement jobs. It reads 0 once every query here has settled.
	held int //lint:confine delivery

	// Per-engine refinement scratch. Engine state is confined to the
	// node's delivery goroutine, so the buffers are reused across queries:
	// the query region, the refinement inner loop of processClusters and
	// the coarse decomposition in Query allocate nothing in steady state.
	region   keyspace.RegionBuf //lint:confine delivery
	scratch  sfc.Scratch        //lint:confine delivery
	coarse   []sfc.Refined      //lint:confine delivery
	frontier []sfc.Refined      //lint:confine delivery
	capKeys  []bufferedMatch    //lint:confine delivery

	// Delta-replication state: the keys of the primary store changed since
	// the last push, once per change and only when Replicas > 0, and the
	// fingerprint of the replica set the last full push went to.
	dirtyKeys      []uint64 //lint:confine delivery
	lastReplicaSet string   //lint:confine delivery

	// debugDispatch, when set (tests only), observes every dispatch round
	// this engine flushes: its destinations in flush order and the number
	// of runs that joined an earlier run's message.
	debugDispatch func(dests []transport.Addr, merged int)
}

// subtree tracks one node's in-flight piece of a query's refinement tree:
// the matches found locally plus the results still expected from child
// messages. When complete, the aggregate flows to the parent (or, at the
// root, out through the root's sink).
type subtree struct {
	qid         QueryID
	q           keyspace.Query
	parent      transport.Addr // empty at the query root
	parentToken uint64
	matches     []Element
	sent        int  // child messages dispatched
	done        int  // child results received (or abandoned)
	dispatched  bool // all child messages have been sent
	incomplete  bool // some part of the subtree was lost to failures
	finished    bool // result already delivered; ignore stragglers
	deadline    transport.Timer
	cancelErr   error         // context cancellation cause; overrides ErrPartialResult
	ctxStop     chan struct{} // closed on completion to release the context watcher

	// reports chains the reports of a remote subtree's children as they
	// arrive, uncopied: its one SubResultMsg links them behind its own
	// matches. The subtree owns them until it sends that report or is torn
	// down.
	reports *SubResultMsg

	// Streaming state. Every root carries its sink; matches flow out
	// through it as children report instead of accumulating in matches
	// (a stream's root holds only its own local matches there until its
	// dispatch round completes).
	stream    streamSink // non-nil exactly at a root
	limit     int        // stop after this many delivered matches (0 = unlimited)
	afterPos  uint64     // cursor restriction: deliver only curve indices >= afterPos
	afterSkip int        // elements at afterPos already delivered (store order)
	hasPos    bool
	delivered int // matches pushed to the stream so far
	cutLo     uint64
	cutSkip   int  // elements at cutLo already delivered
	cutSet    bool // (cutLo, cutSkip) is the lowest coordinate never delivered
	// round is the aggregated dispatch round in progress, if any, whose
	// unsent clusters a cut folds into the cut point.
	round *dispatchRound
	// keep and from are a limited stream's reply cap (ClusterQueryMsg.Keep
	// and From): set at its root, copied down to every subtree.
	keep int
	from uint64
	// cell backs an exact query's one cluster at its root: the point's
	// full-resolution cell, the payload of the root's one child.
	cell [1]sfc.Refined

	// Ordered (paged) delivery state, used when limit > 0: arriving matches
	// buffer here and flow out in curve order once every lower span has
	// resolved, so the resume cursor advances strictly page over page.
	// runIdx/runCount track how many elements at the highest delivered
	// index went out, for the cursor's skip count. pending holds the
	// coarse clusters (curve-sorted) not yet dispatched: a limited root
	// sends only a window at a time, so clusters past the satisfied point
	// are never dispatched at all — the paper's browsing-query economy.
	buf      []bufferedMatch
	runIdx   uint64
	runCount int
	runSet   bool
	pending  []sfc.Refined

	// Result-cache fill state: set on remote subtrees when the cache is
	// enabled; a leaf completion stores its matches under cacheKey.
	cacheKey   string
	cacheSpans []sfc.Interval

	// Tracing state. spanID is 0 when the query is not sampled; when set,
	// this subtree records one span on completion (attached under ref's
	// parent) and accumulates its children's spans for the trip upward.
	spanID       uint64
	ref          telemetry.TraceRef
	kind         string // "root" or "cluster"
	prefix       uint64 // representative cluster (first of the batch)
	level        int
	clustersIn   int // clusters this subtree received
	localDone    int // clusters resolved against the local store
	localMatches int // matches found locally
	retries      int // re-dispatches this subtree performed on its children
	startNS      int64
	spans        []telemetry.Span

	// holds counts what references this subtree (see release); released
	// marks one the poisonReleased switch kept out of the pool.
	holds    int
	released bool
}

// The per-hop bookkeeping comes back through one pool per kind, as the
// per-hop messages do (messages.go): a remote hop's subtree, each child it
// dispatches, each dispatch round and each refinement job. Root subtrees
// are not pooled.
var (
	subtrees   transport.MsgPool[subtree]
	childCalls transport.MsgPool[childCall]
	rounds     transport.MsgPool[dispatchRound]
	refineJobs transport.MsgPool[refineJob]
)

// poisonReleased, set only by this package's tests, makes a release poison
// its object instead of pooling it: a released subtree is marked, and the
// handlers that reach a subtree through a child, round or job panic on a
// marked one (checkLive), as release does on a subtree released more often
// than it was held. The other kinds are zeroed, so a stale use of one
// dereferences nil.
var poisonReleased bool

// checkLive panics on a subtree poisonReleased kept out of the pool: the
// caller reached it through a holder that no longer held it.
func (st *subtree) checkLive() {
	if st.released {
		panic("squid: subtree used after release")
	}
}

// release drops one hold on st. The holders are the handler frame that
// created st (handleClusterQuery), each of its child calls in e.children,
// each dispatch round until its flush returns and each refinement job
// until resolved has run. A remote hop's subtree goes back to its pool once
// it is finished and nothing holds it. finishSubtree never recycles: its
// callers read st.finished after it returns. A cancelled subtree goes back
// when the last of its holders lets go, which may be inside
// teardownChildren: handleQueryCancel reads nothing of it after that.
func (e *Engine) release(st *subtree) {
	st.holds--
	if poisonReleased && (st.released || st.holds < 0) {
		panic("squid: subtree released more often than held")
	}
	if st.holds > 0 || !st.finished || st.parent == "" {
		return
	}
	e.held--
	if poisonReleased {
		st.released = true
		return
	}
	subtrees.Put(st)
}

// take counts a child call, dispatch round or refinement job just taken
// from its pool, and its hold on its subtree st.
func (e *Engine) take(st *subtree) {
	st.holds++
	e.held++
}

// giveBack returns a child call, dispatch round or refinement job to its
// pool after its last use (under poisonReleased it only zeroes it), and
// with it that holder's hold on its subtree st. A child goes back once it
// has left e.children, a round once its flush (or unaggregated loop) has
// run roundDone, a job once its completion has run resolved or admission
// refused it.
func giveBack[T any](e *Engine, pool *transport.MsgPool[T], v *T, st *subtree) {
	e.held--
	if poisonReleased {
		var zero T
		*v = zero
	} else {
		pool.Put(v)
	}
	e.release(st)
}

// childRef derives the trace context for a child subtree dispatched from
// st: sampled children attach under st's span one level deeper.
func (st *subtree) childRef() telemetry.TraceRef {
	if st.spanID == 0 {
		return telemetry.TraceRef{Mode: telemetry.TraceOff}
	}
	return telemetry.TraceRef{Parent: st.spanID, Depth: st.ref.Depth + 1, Mode: telemetry.TraceOn}
}

// childCall tracks one dispatched child subtree awaiting its SubResultMsg.
// Each child owns a token — replies correlate to the child, so a
// lost child can be re-dispatched individually while the original, if it
// was merely slow, is harmlessly deduplicated (first reply wins, the
// second finds no pending call).
type childCall struct {
	st       *subtree
	token    uint64
	clusters []sfc.Refined // re-dispatch payload, shared with the sent message
	key      uint64        // curve index the re-dispatch routes to: the lowest of clusters
	attempts int
	timer    transport.Timer
}

// newEngine fills in the Options defaults and builds the engine behind New.
func newEngine(space *keyspace.Space, opts Options) *Engine {
	if opts.InitialClusters <= 0 {
		opts.InitialClusters = 1 << space.Dims()
	}
	if opts.SubtreeTimeout > 0 && opts.SubtreeRetries <= 0 {
		opts.SubtreeRetries = 3
	}
	if opts.Telemetry == nil {
		opts.Telemetry = telemetry.NewRegistry(nil)
	}
	if opts.Workers == 0 {
		opts.Workers = max(2, min(8, runtime.GOMAXPROCS(0)))
	}
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = max(64, 16*opts.Workers)
	}
	if opts.Clock == nil {
		opts.Clock = transport.RealClock{}
	}
	e := &Engine{
		space:    space,
		store:    NewStore(chord.Space{Bits: space.IndexBits()}),
		replicas: NewStore(chord.Space{Bits: space.IndexBits()}),
		opts:     opts,
		children: make(map[uint64]*childCall),
		roots:    make(map[QueryID]*subtree),
		inbound:  make(map[inboundKey]*subtree),
	}
	if opts.ResultCacheSize > 0 {
		e.rcache = newResultCache(opts.ResultCacheSize)
	}
	return e
}

// inboundKey addresses one remote subtree this node is processing: the
// dispatcher plus the token it assigned. QueryCancelMsg carries the pair so
// teardown finds the subtree even after riding the ring through
// intermediate hops.
type inboundKey struct {
	from  transport.Addr
	token uint64
}

// mutated is the one signal that the primary store changed under key:
// the cached leaves whose spans cover key are dropped, key is queued for
// the next delta push, and the keys gauge is refreshed. Every change to
// the primary store is followed by one call of mutated or mutatedBatch.
func (e *Engine) mutated(key uint64) {
	if e.rcache != nil {
		e.rcache.invalidate(key)
	}
	e.track(key)
}

// mutatedBatch is mutated for a batch: it drops the whole result cache
// and queues keys, the keys whose contents the batch added to (none for a
// removal: deletions are not delta-replicated, they age out on full
// pushes).
func (e *Engine) mutatedBatch(keys []uint64) {
	if e.rcache != nil {
		e.rcache.clear()
	}
	e.track(keys...)
}

// track queues keys for the next delta push and refreshes the keys gauge,
// the one store statistic a scrape goroutine may read.
func (e *Engine) track(keys ...uint64) {
	if e.opts.Replicas > 0 {
		e.dirtyKeys = append(e.dirtyKeys, keys...)
	}
	if e.met.keysHeld != nil { // nil before Attach (bulk preload)
		e.met.keysHeld.Set(int64(e.store.Keys()))
	}
}

// Attach binds the engine to its ring node and resolves the engine's
// per-node metric children (the node identifier is the metric label).
func (e *Engine) Attach(n *chord.Node) {
	e.node = n
	e.met = newEngineMetrics(e.opts.Telemetry, uint64(n.Self().ID))
	if e.opts.Workers > 0 {
		e.sched = newScheduler(e, e.opts.Workers, e.opts.MaxInflight)
	}
}

// WaitIdle blocks until the engine's query scheduler has no admitted
// refinement job outstanding (serial engines are always idle). The
// simulator's quiesce protocol pairs it with transport quiescence; safe
// from any goroutine.
func (e *Engine) WaitIdle() {
	if e.sched != nil {
		e.sched.waitIdle()
	}
}

// newSpanID issues a span identifier unique across the query tree: a
// splitmix64-style mix of the node identifier and a per-engine sequence,
// deterministic under the simulator and allocation-free.
func (e *Engine) newSpanID() uint64 {
	e.spanSeq++
	x := uint64(e.node.Self().ID) ^ mix64(e.spanSeq)
	if id := mix64(x); id != 0 {
		return id
	}
	return 1
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// nowNS reads the registry's injected clock as Unix nanoseconds; 0 under
// the simulator's nil clock, so span timing never perturbs determinism.
func (e *Engine) nowNS() int64 {
	t := e.opts.Telemetry.Now()
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// span builds this subtree's own completed span.
func (e *Engine) span(st *subtree) telemetry.Span {
	return telemetry.Span{
		QID:      st.qid,
		ID:       st.spanID,
		Parent:   st.ref.Parent,
		Depth:    st.ref.Depth,
		Node:     uint64(e.node.Self().ID),
		Addr:     string(e.node.Self().Addr),
		Kind:     st.kind,
		Prefix:   st.prefix,
		Level:    st.level,
		Clusters: st.clustersIn,
		Local:    st.localDone,
		Children: st.sent,
		Matches:  st.localMatches,
		Retries:  st.retries,
		StartNS:  st.startNS,
		EndNS:    e.nowNS(),
	}
}

// lostSpan marks a child subtree the dispatcher gave up on: the subtree
// never reported, so the dispatcher records a synthetic placeholder in its
// place (the node that should have answered is unknown by definition).
func (e *Engine) lostSpan(st *subtree, c *childCall) telemetry.Span {
	return telemetry.Span{
		QID:       st.qid,
		ID:        e.newSpanID(),
		Parent:    st.spanID,
		Depth:     st.ref.Depth + 1,
		Kind:      "lost",
		Prefix:    c.clusters[0].Prefix,
		Level:     c.clusters[0].Level,
		Clusters:  len(c.clusters),
		Abandoned: true,
		StartNS:   e.nowNS(),
		EndNS:     e.nowNS(),
	}
}

// LocalStore exposes the node's local index fragment (for inspection and
// oracle preloading by the simulator).
func (e *Engine) LocalStore() *Store { return e.store }

// ReplicaStore exposes the copies this node holds for its predecessors
// (for inspection by the simulator's storm model and by tests). Call it on
// the delivery goroutine.
func (e *Engine) ReplicaStore() *Store { return e.replicas }

// Publish routes a data element to the node owning its curve index.
func (e *Engine) Publish(elem Element) error {
	idx, err := e.space.Index(elem.Values)
	if err != nil {
		return fmt.Errorf("squid: publish %v: %w", elem.Values, err)
	}
	e.node.Route(chord.ID(idx), PublishMsg{Elem: elem}, 0)
	return nil
}

// Unpublish removes a previously published element (matched by values and
// payload) from the system, including any replicas. Like Publish it is
// fire-and-forget: the removal is routed to the index owner, which fans it
// out to its replica holders.
func (e *Engine) Unpublish(elem Element) error {
	idx, err := e.space.Index(elem.Values)
	if err != nil {
		return fmt.Errorf("squid: unpublish %v: %w", elem.Values, err)
	}
	e.node.Route(chord.ID(idx), UnpublishMsg{Elem: elem}, 0)
	return nil
}

// StoreDirectBatch bulk-loads elements into the local store bypassing
// routing — the simulator's preload hook; the caller is responsible for
// having picked the owning node. It goes through the store's sorted-merge
// path, so seeding n elements costs O(n log n) instead of the O(n²) of n
// single inserts.
func (e *Engine) StoreDirectBatch(elems []Element) error {
	items := make([]chord.Item, 0, len(elems))
	for _, elem := range elems {
		idx, err := e.space.Index(elem.Values)
		if err != nil {
			return err
		}
		items = append(items, chord.Item{Key: chord.ID(idx), Value: []Element{elem}})
	}
	e.mutatedBatch(e.store.addBatch(items, false))
	return nil
}

// Query resolves a flexible query and calls cb exactly once, from the
// node's delivery goroutine, with the complete result set (all matching
// elements in the system). It returns the query's id for metrics
// correlation. A query that cannot start (invalid query, admission shed:
// errors.Is ErrOverloaded, the *OverloadError carrying a retry-after
// hint) is reported through cb as well.
//
// Query is an unlimited stream whose sink collects every batch for cb, so
// it sends exactly the messages an unlimited QueryStream of the same query
// sends. A query cut by the engine's QueryDeadline or by CancelQuery tears
// its outstanding subtrees down with QueryCancelMsg, as a stream does; for
// a context deadline, use QueryStream or QueryStreamFunc.
//
// Like all engine entry points, call it from App upcalls or through
// node.Invoke.
//
//lint:entry delivery
func (e *Engine) Query(q keyspace.Query, cb func(Result)) QueryID {
	return e.collect(q, 0, cb)
}

// collect runs q as a stream whose sink collects every batch into one
// Result for cb, stopping after limit matches when limit > 0: the root of
// Query and of a client's query. A query that cannot start reports through
// cb too.
func (e *Engine) collect(q keyspace.Query, limit int, cb func(Result)) QueryID {
	qid := nextQID()
	e.met.queries.Inc()
	c := &collector{cb: cb}
	c.root = streamRoot(qid, q, c, queryConfig{limit: limit})
	st := &c.root
	if err := e.startRoot(context.Background(), q, st); err != nil {
		cb(Result{QID: qid, Query: q, Err: err})
	}
	return qid
}

// startRoot starts a prepared root subtree as the root of the distributed
// refinement. A non-nil error means nothing was started and the subtree's
// sink will never fire.
func (e *Engine) startRoot(ctx context.Context, q keyspace.Query, st *subtree) error {
	qid := st.qid
	region, err := e.space.RegionInto(q, &e.region)
	if err != nil {
		return err
	}
	if region.Empty() {
		st.dispatched = true
		e.sampleRoot(st)
		e.finishSubtree(st)
		return nil
	}

	// An exact query identifies one point, whose cell is the cluster at
	// full resolution: it is routed to the owner of its index (paper
	// Section 3.4.1), which resolves it like any other cluster.
	if pt, ok := region.IsPoint(); ok {
		curve := e.space.Curve()
		idx := curve.Encode(pt)
		st.dispatched = true
		e.sampleRoot(st)
		if st.hasPos && idx < st.afterPos {
			// Resuming past the point: everything was already delivered.
			e.finishSubtree(st)
			return nil
		}
		e.roots[qid] = st
		e.startDeadline(st)
		e.watchCtx(ctx, st)
		st.cell[0] = sfc.Refined{Cluster: sfc.Cluster{Prefix: idx, Level: curve.Bits()}, Complete: true}
		tok := e.addChild(st, idx, st.cell[:])
		e.node.Route(chord.ID(idx), e.childQuery(st, st.cell[:], tok), uint64(qid))
		return nil
	}

	// Compute the first levels of the refinement tree locally, then act as
	// the root of the distributed refinement: process locally rooted
	// clusters here and dispatch the rest. The processing itself runs on
	// the scheduler (inline in serial mode); everything that mutates the
	// subtree happens back on the delivery goroutine.
	e.coarse = sfc.CoarseClustersInto(e.coarse[:0], e.space.Curve(), region, e.opts.InitialClusters, &e.scratch)
	coarse := e.coarse
	if st.hasPos {
		// Cursor resume: clusters whose whole span was already delivered are
		// skipped; the partially-delivered boundary cluster re-runs and the
		// match filter in rootDeliver drops its already-seen indices.
		kept := coarse[:0]
		for _, c := range coarse {
			if c.Span(e.space.Curve()).Hi >= st.afterPos {
				kept = append(kept, c)
			}
		}
		coarse = kept
	}
	cls := coarse
	if e.sched != nil {
		// The coarse buffer is reused by the next query; a pooled job needs
		// its own copy.
		cls = append([]sfc.Refined(nil), coarse...)
	}
	st.clustersIn = len(cls)
	e.sampleRoot(st)
	admitted := e.submitClusters(st, cls, region)
	if !admitted {
		e.met.shedRoot.Inc()
		return &OverloadError{RetryAfter: e.retryAfterHint()}
	}
	if st.finished {
		// Serial refinement completed inline (all clusters local, or a
		// streaming root satisfied its limit from the local scan): the
		// sink already fired; registering the root would leak it.
		return nil
	}
	e.roots[qid] = st
	e.startDeadline(st)
	e.watchCtx(ctx, st)
	return nil
}

// rootResolved takes a root's refined coarse clusters: it keeps or
// streams the local matches and dispatches the rest.
func (e *Engine) rootResolved(st *subtree, matches []Element, remote []sfc.Refined, local int) {
	e.noteProcessed(st.qid, local, len(matches), e.opts.Sink != nil && local > 0)
	st.localDone = local
	st.localMatches = len(matches)
	// A stream's root holds its local matches until the dispatch round
	// has registered every child: a cancellation arriving before or
	// during their delivery can then name both the held matches and the
	// outstanding subtrees in the resume cursor, instead of reporting a
	// falsely exhausted stream before any child existed. A limited
	// stream holds them in its ordered buffer, an unlimited one as the
	// filtered slice itself. An unlimited collector has no cursor to name
	// them in, and takes them at once.
	switch _, collecting := st.stream.(*collector); {
	case st.limit > 0:
		e.bufferMatches(st, e.filterResumed(st, matches))
	case collecting:
		e.pushUnordered(st, matches)
	default:
		st.matches = e.filterResumed(st, matches)
	}
	if st.limit > 0 && len(remote) > streamDispatchWindow {
		// Windowed dispatch: only the lowest clusters go out now; the
		// rest wait in pending and are never sent if the limit is
		// satisfied first. remote is this root's own slice, and the
		// round's messages take capped runs of the window, so pending
		// shares its tail without a copy.
		sortBySpan(remote, e.space.Curve())
		st.pending = remote[streamDispatchWindow:]
		remote = remote[:streamDispatchWindow:streamDispatchWindow]
	}
	e.dispatchRemote(remote, st)
}

// roundDone ends a dispatch round of st: every child message is sent, so
// st settles.
func (e *Engine) roundDone(st *subtree) {
	st.dispatched = true
	e.settle(st)
}

// settle moves st on after an event that changed its outstanding work: a
// child's report, an abandoned or shed child, the end of a dispatch round.
// Root and remote subtrees alike, in order: a root delivers what is
// deliverable (a limited stream's ordered prefix below the frontier, an
// unlimited one's local matches held for the round), a limited root
// completes early once its limit is met and otherwise refills its window,
// and st finishes once nothing is outstanding or pending. During a round
// it does nothing: delivery then could precede a child not yet registered.
func (e *Engine) settle(st *subtree) {
	if st.finished || !st.dispatched {
		return
	}
	switch {
	case st.stream == nil:
	case st.limit == 0:
		held := st.matches
		st.matches = nil
		e.pushUnordered(st, held)
	default:
		e.deliverOrdered(st)
		if st.delivered >= st.limit {
			e.endEarly(st, false)
			return
		}
	}
	if e.refillWindow(st) {
		return // the refill's round settles st when it ends
	}
	if st.done == st.sent && len(st.pending) == 0 {
		e.finishSubtree(st)
	}
}

// bufferedMatch is one match held back by a limited (ordered) stream until
// every lower curve span has resolved.
type bufferedMatch struct {
	el  Element
	idx uint64
}

// rootDeliver feeds a child's report into a streaming root batch by
// batch, its own matches and then each linked report's, and puts every
// report of the chain back in its pool. The cursor restriction drops
// already-delivered coordinates first. An unlimited stream pushes the
// remainder straight out (completion order), unless its consumer
// cancelled from inside the sink; a limited stream buffers it for settle
// to deliver in curve order.
func (e *Engine) rootDeliver(st *subtree, r *SubResultMsg) {
	for r != nil {
		done, batch := r, e.filterResumed(st, r.Matches)
		r = r.next
		subResults.Put(done)
		switch {
		case st.limit > 0:
			e.bufferMatches(st, batch)
		case !st.finished:
			e.pushUnordered(st, batch)
		}
	}
}

// pushUnordered pushes already-filtered matches out of an unlimited stream
// as one batch, as they are.
func (e *Engine) pushUnordered(st *subtree, batch []Element) {
	if len(batch) == 0 {
		return
	}
	st.delivered += len(batch)
	st.stream.pushBatch(st.qid, batch)
	e.met.streamBatches.Inc()
}

// bufferMatches appends already-filtered matches to the root's buffer with
// their curve coordinates.
func (e *Engine) bufferMatches(st *subtree, batch []Element) {
	for _, m := range batch {
		idx, err := e.space.Index(m.Values)
		if err != nil {
			idx = 0 // unindexable matches (none in practice) deliver first
		}
		st.buf = append(st.buf, bufferedMatch{el: m, idx: idx})
	}
}

// filterResumed drops the matches a resumed stream's earlier pages already
// delivered: everything below the cursor position, and — at the boundary
// position itself — the first afterSkip elements in batch order. Batch
// order is the owner's store order (one curve index is scanned by exactly
// one node, contiguously), which is what the cursor's skip count indexes.
func (e *Engine) filterResumed(st *subtree, batch []Element) []Element {
	if !st.hasPos || len(batch) == 0 {
		return batch
	}
	kept := batch[:0:0]
	rank := 0
	for _, m := range batch {
		idx, err := e.space.Index(m.Values)
		if err != nil {
			kept = append(kept, m)
			continue
		}
		if idx < st.afterPos {
			continue
		}
		if idx == st.afterPos {
			rank++
			if rank <= st.afterSkip {
				continue
			}
		}
		kept = append(kept, m)
	}
	return kept
}

// frontierOf returns the lowest curve position of st's outstanding work —
// dispatched children still in flight and pending clusters not yet
// dispatched. Buffered matches below it can no longer be preceded by
// anything unresolved.
func (e *Engine) frontierOf(st *subtree) (uint64, bool) {
	var lo uint64
	found := false
	for _, c := range e.children {
		if c.st != st {
			continue
		}
		if !found || c.key < lo {
			lo, found = c.key, true
		}
	}
	if len(st.pending) > 0 {
		if p := st.pending[0].Span(e.space.Curve()).Lo; !found || p < lo {
			lo, found = p, true
		}
	}
	return lo, found
}

// skipFor computes the cursor skip count for a cut at curve position idx:
// the elements at idx this stream delivered (tracked by the run counter),
// plus the carry from the resume cursor when the page never got past its
// own boundary position.
func (st *subtree) skipFor(idx uint64) int {
	s := 0
	if st.runSet && st.runIdx == idx {
		s += st.runCount
	}
	if st.hasPos && idx == st.afterPos {
		s += st.afterSkip
	}
	return s
}

// deliverOrdered delivers the deliverable prefix of a limited stream's
// buffer: everything below the frontier of outstanding children, up to the
// limit.
func (e *Engine) deliverOrdered(st *subtree) {
	frontier, bounded := e.frontierOf(st)
	slices.SortStableFunc(st.buf, func(a, b bufferedMatch) int { return cmp.Compare(a.idx, b.idx) })
	n := 0
	for n < len(st.buf) && (!bounded || st.buf[n].idx < frontier) {
		n++
	}
	if st.delivered+n > st.limit {
		n = st.limit - st.delivered
	}
	if n <= 0 {
		return
	}
	batch := make([]Element, n)
	for i := range batch {
		batch[i] = st.buf[i].el
	}
	last := st.buf[n-1].idx
	cnt := 0
	for i := n - 1; i >= 0 && st.buf[i].idx == last; i-- {
		cnt++
	}
	if st.runSet && st.runIdx == last {
		st.runCount += cnt
	} else {
		st.runIdx, st.runCount, st.runSet = last, cnt, true
	}
	st.buf = st.buf[n:]
	st.delivered += n
	st.stream.pushBatch(st.qid, batch)
	e.met.streamBatches.Inc()
}

// streamDispatchWindow bounds how many clusters a limited stream keeps in
// flight: small enough that a satisfied limit leaves most of the curve
// undispatched (top-k queries usually resolve within the lowest spans),
// large enough to overlap some network latency.
const streamDispatchWindow = 2

// refillWindow dispatches the next pending clusters of a limited stream
// once the in-flight window has drained below its bound and the limit is
// still unmet, and reports whether it did. Clusters never dispatched this
// way are the top-k message saving: a full-drain query would have sent
// them all.
func (e *Engine) refillWindow(st *subtree) bool {
	out := st.sent - st.done
	if len(st.pending) == 0 || out >= streamDispatchWindow {
		return false
	}
	// If the matches already buffered below the first pending cluster cover
	// the rest of the limit, they will deliver as the outstanding children
	// complete — dispatching more clusters would be pure waste. With no
	// children outstanding settle has already delivered everything below
	// the pending frontier, so avail is zero and refill proceeds.
	lo := st.pending[0].Span(e.space.Curve()).Lo
	avail := 0
	for _, b := range st.buf {
		if b.idx < lo {
			avail++
		}
	}
	if avail >= st.limit-st.delivered {
		return false
	}
	n := min(streamDispatchWindow-out, len(st.pending))
	next := st.pending[:n]
	st.pending = st.pending[n:]
	st.dispatched = false
	e.dispatchRemote(next, st)
	return true
}

// endEarly finishes a root before everything it dispatched has reported:
// its limit was met, a successful top-k result, or — partial — it was
// cancelled or its deadline passed. Outstanding children are torn down
// with QueryCancelMsg, so the tail of refinement messages is never sent.
// What was found or planned but never delivered feeds the resume cursor:
// the lowest held match (a limited stream's ordered buffer, an unlimited
// stream's local matches awaiting the end of its dispatch round), the
// never-dispatched clusters (pending is curve-sorted), the torn-down
// children. A partial end also marks each outstanding child lost in the
// trace, so the dump shows where the cut fell.
func (e *Engine) endEarly(st *subtree, partial bool) {
	e.bufferMatches(st, st.matches)
	if len(st.buf) > 0 {
		lo := slices.MinFunc(st.buf, func(a, b bufferedMatch) int { return cmp.Compare(a.idx, b.idx) }).idx
		st.noteCutSkip(lo, st.skipFor(lo))
	}
	if len(st.pending) > 0 {
		st.noteCut(st.pending[0].Span(e.space.Curve()).Lo)
		st.pending = nil
	}
	if partial {
		st.incomplete = true
		if st.spanID != 0 {
			for _, c := range e.children {
				if c.st == st {
					st.spans = append(st.spans, e.lostSpan(st, c))
				}
			}
		}
	}
	e.teardownChildren(st)
	st.dispatched = true
	e.finishSubtree(st)
}

// teardownChildren cancels every outstanding child of st, sending each a
// downstream QueryCancelMsg, and folds the children's curve positions into
// st's resume-cursor cut point, as it does the lowest cluster that st's
// dispatch round in progress has not sent: its buffered runs come first
// in curve order, then its unresolved tail. The round's flush sends none
// of them.
func (e *Engine) teardownChildren(st *subtree) {
	if r := st.round; r != nil {
		if len(r.pending) > 0 {
			st.noteCut(r.pending[0].clusters[0].Span(r.curve).Lo)
		} else if len(r.rem) > 0 {
			st.noteCut(r.rem[0].Span(r.curve).Lo)
		}
	}
	for tok, c := range e.children {
		if c.st != st {
			continue
		}
		delete(e.children, tok)
		c.timer.Stop()
		st.noteCut(c.key)
		e.sendCancel(st, c)
		giveBack(e, &childCalls, c, st)
	}
}

// noteCut folds an undelivered curve position into the subtree's
// resume-cursor cut point (the minimum such position, skip 0: nothing at
// it was delivered this page).
func (st *subtree) noteCut(pos uint64) { st.noteCutSkip(pos, 0) }

// noteCutSkip folds an undelivered (position, skip) coordinate into the
// cut point, keeping the lexicographic minimum — the cursor must not point
// past any undelivered element, and over-covering only costs re-delivery.
func (st *subtree) noteCutSkip(pos uint64, skip int) {
	if !st.cutSet || pos < st.cutLo || (pos == st.cutLo && skip < st.cutSkip) {
		st.cutLo, st.cutSkip, st.cutSet = pos, skip, true
	}
}

// sendCancel routes a QueryCancelMsg to the current owner of a cancelled
// child's curve position.
func (e *Engine) sendCancel(st *subtree, c *childCall) {
	e.met.cancelsSent.Inc()
	e.node.Route(chord.ID(c.key), QueryCancelMsg{
		QID: st.qid, Token: c.token, ReplyTo: e.node.Self().Addr,
	}, uint64(st.qid))
}

// rootCursor derives a finished root's resume cursor: exhausted when every
// dispatched subtree delivered, else the lowest coordinate that was lost,
// cancelled or never dispatched — the beginning, for a root cut before it
// dispatched anything. The cut is clamped to the cursor this page resumed
// from — a boundary cluster's span can start below the resume position,
// and a cursor that regressed would re-deliver whole pages and stall
// paginated browsing.
func (st *subtree) rootCursor() Cursor {
	if !st.cutSet && !st.incomplete {
		return encodeCursor(st.q, 0, 0, true)
	}
	pos, skip := st.cutLo, st.cutSkip
	if st.hasPos && (pos < st.afterPos || (pos == st.afterPos && skip < st.afterSkip)) {
		pos, skip = st.afterPos, st.afterSkip
	}
	return encodeCursor(st.q, pos, skip, false)
}

// submitClusters hands one batch of st's clusters to the scheduler (or
// runs it inline in serial mode); its outcome always reaches resolved on
// the delivery goroutine. It reports false when the admission cap
// rejected the job — the caller sheds instead of queueing. A worker
// rebuilds the region from the query, so region serves the inline path
// only.
func (e *Engine) submitClusters(st *subtree, cls []sfc.Refined, region sfc.Region) bool {
	if e.sched == nil {
		matches, remote, local := e.processClusters(st.qid, cls, st.q, region)
		e.resolved(st, matches, remote, local)
		return true
	}
	j := refineJobs.Get()
	*j = refineJob{
		st: st, qid: st.qid, q: st.q, clusters: cls,
		arc:      e.arcView(),
		enqueued: e.opts.Telemetry.Now(),
	}
	e.take(st)
	if !e.sched.trySubmit(j) {
		giveBack(e, &refineJobs, j, st)
		return false
	}
	return true
}

// resolved takes one refinement job's outcome for st: the local matches,
// the clusters to forward and the number resolved here.
func (e *Engine) resolved(st *subtree, matches []Element, remote []sfc.Refined, local int) {
	st.checkLive()
	if st.finished {
		return // cancelled while the refinement job was in flight
	}
	if st.parent == "" {
		e.rootResolved(st, matches, remote, local)
		return
	}
	e.clusterResolved(st, matches, remote, local)
}

// retryAfterHint derives the admission-control backoff hint from the
// current scheduler depth: deeper queues push retries further out.
func (e *Engine) retryAfterHint() time.Duration {
	depth := 0
	if e.sched != nil {
		depth = e.sched.depth()
	}
	hint := time.Duration(depth) * 2 * time.Millisecond
	return min(max(hint, 5*time.Millisecond), 250*time.Millisecond)
}

// watchCtx wires a root subtree to its context: when ctx ends before the
// query completes, the query is cancelled on the delivery goroutine with
// ctx's error as the cause. No goroutine is spawned for contexts that can
// never be cancelled.
func (e *Engine) watchCtx(ctx context.Context, st *subtree) {
	if ctx == nil || ctx.Done() == nil {
		return
	}
	stop := make(chan struct{})
	st.ctxStop = stop
	go func() {
		select {
		case <-ctx.Done():
			_ = e.node.Invoke(func() { e.cancelQuery(st, ctx.Err()) }) // node detached: the query died with its node
		case <-stop:
		}
	}()
}

// sampleRoot turns tracing on for a root subtree when this node collects
// traces.
func (e *Engine) sampleRoot(st *subtree) {
	if e.opts.Traces == nil {
		return
	}
	st.spanID = e.newSpanID()
	st.ref = telemetry.TraceRef{Mode: telemetry.TraceOn}
	st.startNS = e.nowNS()
}

// noteProcessed feeds the local processing counters and, when sink is set,
// the per-query metrics sink.
func (e *Engine) noteProcessed(qid QueryID, clusters, matches int, sink bool) {
	e.met.clustersDone.Add(uint64(clusters))
	e.met.matches.Add(uint64(matches))
	if sink {
		e.opts.Sink.Processed(qid, e.node.Self().ID, clusters, matches)
	}
}

// addChild registers one dispatched child of st under a fresh token and
// arms its recovery deadline. clusters is the re-dispatch payload, key the
// lowest index in it.
func (e *Engine) addChild(st *subtree, key uint64, clusters []sfc.Refined) uint64 {
	e.nextToken++
	c := childCalls.Get()
	*c = childCall{st: st, token: e.nextToken, key: key, clusters: clusters}
	e.children[c.token] = c
	e.take(st)
	st.sent++
	e.met.subtreesSent.Inc()
	e.armChild(c)
	return c.token
}

// dropChild unregisters a child whose dispatch failed before it left the
// node (it will be delivered some other way and re-registered).
func (e *Engine) dropChild(tok uint64) {
	c, ok := e.children[tok]
	if !ok {
		return
	}
	delete(e.children, tok)
	c.timer.Stop()
	c.st.sent--
	giveBack(e, &childCalls, c, c.st)
}

// armChild starts (or restarts) a child's recovery deadline, tagged with
// the child's token.
func (e *Engine) armChild(c *childCall) {
	if e.opts.SubtreeTimeout <= 0 {
		return
	}
	c.timer = e.opts.Clock.Arm(e.opts.SubtreeTimeout, (*childTimers)(e), c.token)
}

// childTimers is the engine's handler for child recovery deadlines: a
// deadline fires Fire(token), which hops onto the delivery goroutine
// before it touches the child table.
type childTimers Engine

func (t *childTimers) Fire(tok uint64) {
	e := (*Engine)(t)
	_ = e.node.Invoke(func() { e.childExpired(tok) }) // node detached: no children left to expire
}

// childExpired handles a child subtree that missed its deadline: it is
// re-dispatched through ring routing (which resolves to the current owner,
// i.e. the next live successor after a crash), or abandoned once its
// retries are exhausted, degrading the query to an explicit partial
// result.
func (e *Engine) childExpired(tok uint64) {
	c, ok := e.children[tok]
	if !ok {
		return
	}
	c.st.checkLive()
	if c.st.finished {
		return
	}
	if c.attempts >= e.opts.SubtreeRetries {
		e.abandonChild(c)
		return
	}
	c.attempts++
	e.met.redispatches.Inc()
	st := c.st
	st.retries++
	e.node.Route(chord.ID(c.key), e.childQuery(st, c.clusters, c.token), uint64(st.qid))
	e.armChild(c)
}

// childQuery builds the ClusterQueryMsg for one child of st, in a pooled
// message its send hands over. Dispatch and re-dispatch both build it here,
// so a re-dispatched child carries every field the first dispatch did.
func (e *Engine) childQuery(st *subtree, cls []sfc.Refined, tok uint64) *ClusterQueryMsg {
	m := clusterQueries.Get()
	*m = ClusterQueryMsg{
		QID: st.qid, Query: st.q, Clusters: cls, ReplyTo: e.node.Self().Addr, Token: tok,
		Keep: st.keep, From: st.from, Trace: st.childRef(),
	}
	return m
}

// abandonChild gives up on a child that cannot be retried (its retries
// are spent, or no recovery deadline is armed): the subtree settles
// without it, marked incomplete, so the query degrades to an explicit
// partial result, and the child's position enters the cut, so a resumed
// query retries what was lost.
func (e *Engine) abandonChild(c *childCall) {
	st := c.st
	delete(e.children, c.token)
	e.met.abandoned.Inc()
	if st.spanID != 0 {
		st.spans = append(st.spans, e.lostSpan(st, c))
	}
	st.incomplete = true
	st.noteCut(c.key)
	st.done++
	e.settle(st)
	giveBack(e, &childCalls, c, st)
}

// startDeadline arms the overall query deadline on a root subtree, tagged
// with its query ID.
func (e *Engine) startDeadline(st *subtree) {
	if e.opts.QueryDeadline <= 0 || st.parent != "" {
		return
	}
	st.deadline = e.opts.Clock.Arm(e.opts.QueryDeadline, (*deadlineTimers)(e), uint64(st.qid))
}

// deadlineTimers is the engine's handler for query deadlines: a deadline
// fires Fire(qid), which hops onto the delivery goroutine before it looks
// the root up.
type deadlineTimers Engine

func (t *deadlineTimers) Fire(qid uint64) {
	e := (*Engine)(t)
	_ = e.node.Invoke(func() { e.queryExpired(QueryID(qid)) }) // node detached: the query died with its node
}

// queryExpired force-completes a root subtree whose overall deadline
// passed: outstanding children are cancelled and the sink finishes with
// whatever was gathered, marked partial. A root that already finished has
// left e.roots, so its deadline finds nothing.
func (e *Engine) queryExpired(qid QueryID) {
	if st, ok := e.roots[qid]; ok {
		e.cancelQuery(st, nil)
	}
}

// cancelQuery cuts a root subtree short, partial: the consumer walked
// away, so its outstanding subtrees are torn down instead of being left to
// refine into a void, and the sink finishes with whatever was delivered.
// cause is the context's error for ctx-driven cancellation, or nil for a
// deadline expiry (the result then carries ErrPartialResult).
func (e *Engine) cancelQuery(st *subtree, cause error) {
	if st.finished {
		return
	}
	st.cancelErr = cause
	e.endEarly(st, true)
}

// finishSubtree delivers a subtree's aggregate exactly once: to the parent
// node, or — at the root — to the root's sink, surfacing lost subtrees as
// ErrPartialResult rather than a silently short match set.
func (e *Engine) finishSubtree(st *subtree) {
	if st.finished {
		return
	}
	st.finished = true
	st.deadline.Stop()
	if st.ctxStop != nil {
		close(st.ctxStop) // release the context watcher
		st.ctxStop = nil
	}
	if st.spanID != 0 {
		st.spans = append(st.spans, e.span(st))
	}
	if st.parent == "" {
		delete(e.roots, st.qid)
		var err error
		if st.incomplete {
			// A context cancellation is reported as its own cause; a plain
			// deadline or lost subtree degrades to ErrPartialResult. Both
			// count as partials — the match set is short either way.
			err = ErrPartialResult
			if st.cancelErr != nil {
				err = st.cancelErr
			}
			e.met.partials.Inc()
		}
		if st.spanID != 0 && e.opts.Traces != nil {
			e.opts.Traces.Add(telemetry.Trace{QID: st.qid, Partial: st.incomplete, Spans: st.spans})
		}
		st.stream.finishStream(st, err)
		return
	}
	delete(e.inbound, inboundKey{from: st.parent, token: st.parentToken})
	if e.rcache != nil && st.cacheKey != "" {
		if st.sent == 0 && !st.incomplete {
			// A leaf subtree's matches depend only on the local store inside
			// its spans: remember them for the next popular repeat. This was
			// a cacheable lookup that missed.
			e.met.cacheMisses.Inc()
			e.rcache.put(st.cacheKey, st.cacheSpans, st.matches) // uncapped: any page may read it
		} else {
			// Subtrees with remote children aggregate other nodes' data,
			// which the local mutation signal cannot invalidate — never
			// cacheable, so they count as bypasses, not misses.
			e.met.cacheBypass.Inc()
		}
	}
	// The subtree's one report: its local matches, with its children's
	// reports linked behind them, capped together to the page.
	r := SubResultMsg{
		QID: st.qid, Token: st.parentToken, Matches: st.matches,
		Incomplete: st.incomplete, Spans: st.spans,
	}
	r.link(st.reports)
	st.reports = nil
	e.capReport(&r, st.keep, st.from)
	sendPooled(e, &subResults, st.parent, r)
}

// capReport sizes a limited stream subtree's report to its page
// (ClusterQueryMsg.Keep): across the report's own matches and those of
// every report linked behind it, it drops the matches below curve index
// from and keeps the lowest keep of the rest, in store order within one
// index. When that drops anything, r takes the page in one new slice and
// the linked reports go back to their pool. keep <= 0 leaves r uncapped.
// No batch is written: a result-cache entry may share one.
func (e *Engine) capReport(r *SubResultMsg, keep int, from uint64) {
	if keep <= 0 {
		return
	}
	n := 0
	for b := range r.Batches() {
		n += len(b)
	}
	if from == 0 && n <= keep {
		return
	}
	keyed := e.capKeys[:0]
	for b := range r.Batches() {
		for _, m := range b {
			idx, err := e.space.Index(m.Values)
			if err == nil && idx < from {
				continue
			}
			keyed = append(keyed, bufferedMatch{el: m, idx: idx}) // unindexable: idx 0, as bufferMatches
		}
	}
	if len(keyed) < n || len(keyed) > keep {
		slices.SortStableFunc(keyed, func(a, b bufferedMatch) int { return cmp.Compare(a.idx, b.idx) })
		out := make([]Element, min(keep, len(keyed)))
		for i := range out {
			out[i] = keyed[i].el
		}
		putReports(r.next)
		r.Matches, r.next, r.last = out, nil, nil
	}
	clear(keyed)
	e.capKeys = keyed[:0]
}

// debugScan, when set (tests only), observes every cluster scan.
var debugScan func(node chord.ID, qid QueryID, span sfc.Interval)

// processClusters resolves the locally owned parts of the given clusters
// and collects the parts that must be forwarded (pruned by the query
// region). It walks each cluster's refinement subtree: a subtree whose
// span lies entirely inside the node's contiguous owned run is scanned
// (exactly once — subtree spans are disjoint); a subtree rooted outside
// the arc is forwarded; a subtree that starts owned but extends past the
// owned run is refined one level and reclassified.
//
// The "owned run" subtlety matters for the node whose arc wraps the top of
// the index space: a low cluster may cover both its low segment and,
// higher up, its wrap segment. Scanning the full span would count the wrap
// segment now AND again when the refinement routes those subspans back —
// the run boundary keeps every key in exactly one scanned subtree.
//
// This is the serial (delivery-goroutine) entry: the actual walk lives in
// refineClusters, shared with the scheduler's workers, against a snapshot
// of the node's current arc. The per-engine scratch and frontier buffers
// keep the serial path allocation-free in steady state.
func (e *Engine) processClusters(qid QueryID, cls []sfc.Refined, q keyspace.Query, region sfc.Region) (matches []Element, remote []sfc.Refined, local int) {
	matches, remote, local, e.frontier = refineClusters(
		e.store, e.space, e.arcView(), qid, cls, q, region, &e.scratch, e.frontier)
	return matches, remote, local
}

// pendingDispatch is one resolved send of a dispatch round, buffered until
// the round flushes: the destination and its runs of clusters, which
// become one child there.
type pendingDispatch struct {
	dest     transport.Addr
	clusters []sfc.Refined
}

// dispatchRound is one dispatchRemote call in progress: the subtree it
// dispatches for, the sorted clusters not yet resolved to an owner, and the
// sends buffered so far. Its steps are methods and it is its own
// chord.FoundHandler, so a round needs no callback. chord calls Found
// exactly once per FindSuccessorTo, so no answer reaches a round after its
// flush has given it back to the rounds pool.
type dispatchRound struct {
	e     *Engine
	st    *subtree
	root  bool
	curve sfc.Curve

	// rem is the sorted tail of clusters not yet resolved; rem[0] is the
	// one being probed while a lookup is in flight.
	rem []sfc.Refined
	// pending buffers the resolved sends, one per destination in
	// first-touch order (deterministic flush order for the simulator).
	// inline backs it: on the benchmark workloads 74–100 % of rounds
	// buffer at most two sends (des-wan-mix 88 %, inproc-range 74 %).
	pending []pendingDispatch
	inline  [2]pendingDispatch
	merged  int // runs that joined an earlier run's message (debugDispatch)
}

// dispatchRemote forwards clusters rooted at other nodes, registering each
// dispatched message as a tracked child of st, and calls roundDone once
// every child message has been sent. With aggregation enabled it probes
// the owner of the first (lowest) cluster, then ships every sibling owned
// by that node's arc as one message (the paper's second optimization);
// without it, each cluster is routed independently.
//
// Resolved sends are buffered per destination for the length of the round
// and flushed at its end, one ClusterQueryMsg per destination: a
// destination that resolved more than once (the wrap-arc owner, whose low
// and wrap segments are separate runs of the sorted cluster list) gets all
// its runs in one message, as the paper's aggregation intends.
//
// Only at the query initiator (st has no parent) may the probe cache
// short-circuit the handshake. Receivers always probe, so a stale cache
// entry costs one extra forward and can never loop.
//
// remote is sorted in place, and the messages share sub-slices of it.
func (e *Engine) dispatchRemote(remote []sfc.Refined, st *subtree) {
	if len(remote) == 0 {
		e.roundDone(st)
		return
	}
	r := rounds.Get()
	*r = dispatchRound{
		e: e, st: st, root: st.parent == "",
		curve: e.space.Curve(),
	}
	e.take(st)
	if e.opts.DisableAggregation {
		for i := range remote {
			r.routeOne(remote[i : i+1 : i+1])
		}
		e.roundDone(st)
		giveBack(e, &rounds, r, st)
		return
	}
	sortBySpan(remote, r.curve)
	r.rem = remote
	r.pending = r.inline[:0]
	st.round = r
	r.step()
}

// routeOne blind-routes a single cluster (a one-element slice) as its own
// tracked child. A subtree that finished while dispatch was in flight
// (streaming root hit its limit, remote subtree cancelled) dispatches
// nothing more — the undelivered curve position feeds the resume cursor
// instead.
func (r *dispatchRound) routeOne(cls []sfc.Refined) {
	e, st := r.e, r.st
	lo := cls[0].Span(r.curve).Lo
	if st.finished {
		st.noteCut(lo)
		return
	}
	tok := e.addChild(st, lo, cls)
	e.node.Route(chord.ID(lo), e.childQuery(st, cls, tok), uint64(st.qid))
}

// step resolves the owner of the lowest remaining cluster: from the probe
// cache at the root, else by a FindSuccessor probe answered in Found. With
// nothing left, or the subtree cut mid-probe (its teardown noted the
// round's lowest unsent position), it flushes.
func (r *dispatchRound) step() {
	e := r.e
	r.st.checkLive()
	for len(r.rem) > 0 && !r.st.finished {
		head := chord.ID(r.rem[0].Span(r.curve).Lo)
		if r.root && e.opts.ProbeCacheSize > 0 {
			if arc, ok := e.cacheLookup(head); ok {
				e.met.probeHits.Inc()
				r.enqueue(arc.owner.Addr, r.runIn(arc.pred, arc.owner))
				continue
			}
			e.met.probeMisses.Inc()
		}
		e.node.FindSuccessorTo(head, uint64(r.st.qid), r)
		return
	}
	r.flush()
}

// Found takes the probe's answer for rem[0]. A failed probe (ring
// unstable) falls back to blind routing for the head cluster; a subtree
// that finished while the probe was in flight stops in step. An answer
// naming this node for a head outside its own arc counts as failed: the
// answering predecessor's successor view and this node's predecessor view
// disagree (a join in progress, or a dead predecessor kept as suspect),
// and sending the cluster here would probe it again and get the same
// answer, without end. The route is bounded by the hop limit.
func (r *dispatchRound) Found(m chord.FoundMsg, err error) {
	r.st.checkLive()
	e := r.e
	switch {
	case r.st.finished:
	case err != nil || m.Owner.Addr == e.node.Self().Addr && !e.node.Owns(chord.ID(r.rem[0].Span(r.curve).Lo)):
		r.routeOne(r.rem[:1:1])
		r.rem = r.rem[1:]
	default:
		e.cacheInsert(m.Pred, m.Owner)
		n := 1
		if !m.Pred.IsZero() {
			n = r.runIn(m.Pred, m.Owner)
		}
		r.enqueue(m.Owner.Addr, n)
	}
	r.step()
}

// runIn returns the length of the run of remaining clusters (at least the
// head) whose low ends fall inside the arc (pred, owner]. The list is
// sorted, so the run is a prefix.
func (r *dispatchRound) runIn(pred, owner chord.NodeRef) int {
	sp := r.e.node.Space()
	n := 1
	for n < len(r.rem) && sp.InArc(chord.ID(r.rem[n].Span(r.curve).Lo), pred, owner) {
		n++
	}
	return n
}

// enqueue buffers the first n remaining clusters for dest. A destination
// already buffered this round takes them into its pending run; otherwise
// they become a new pending send. The run is capped, so appending to it
// copies.
func (r *dispatchRound) enqueue(dest transport.Addr, n int) {
	cls := r.rem[:n:n]
	r.rem = r.rem[n:]
	for i := range r.pending {
		if p := &r.pending[i]; p.dest == dest {
			p.clusters = append(p.clusters, cls...)
			r.merged++
			return
		}
	}
	r.pending = append(r.pending, pendingDispatch{dest: dest, clusters: cls})
}

// flush sends the buffered round, one ClusterQueryMsg per destination, and
// registers each as a child of st as it leaves, keyed by its lowest
// cluster. A subtree cut while probes were in flight (limit hit,
// cancelled) sends nothing: nobody will read the work.
func (r *dispatchRound) flush() {
	e, st := r.e, r.st
	st.checkLive()
	st.round = nil
	if !st.finished {
		if e.debugDispatch != nil {
			dests := make([]transport.Addr, len(r.pending))
			for i, p := range r.pending {
				dests[i] = p.dest
			}
			e.debugDispatch(dests, r.merged)
		}
		for _, p := range r.pending {
			tok := e.addChild(st, p.clusters[0].Span(r.curve).Lo, p.clusters)
			if msg := e.childQuery(st, p.clusters, tok); !e.send(p.dest, msg) {
				// Destination died between probe and flush: untrack the
				// child and blind-route its clusters through the ring,
				// which resolves to the current owner.
				e.cacheDrop(p.dest)
				e.dropChild(tok)
				for i := range p.clusters {
					r.routeOne(p.clusters[i : i+1 : i+1])
				}
				clusterQueries.Put(msg)
			}
		}
	}
	e.roundDone(st)
	giveBack(e, &rounds, r, st)
}

// sortBySpan orders clusters by the low end of their curve spans. The spans
// of one query's clusters are disjoint, so their low ends are distinct and
// the order is total.
func sortBySpan(cls []sfc.Refined, curve sfc.Curve) {
	slices.SortFunc(cls, func(a, b sfc.Refined) int { return cmp.Compare(a.Span(curve).Lo, b.Span(curve).Lo) })
}

func (e *Engine) send(to transport.Addr, msg any) bool {
	return e.node.SendApp(to, msg)
}

// sendPooled sends v in a message from pool, which the send hands over to
// the receiver; a failed send puts it back.
func sendPooled[T any](e *Engine, pool *transport.MsgPool[T], to transport.Addr, v T) {
	m := pool.Get()
	*m = v
	if !e.send(to, m) {
		pool.Put(m)
	}
}

// Deliver implements chord.App: application payloads routed to this node.
//
//lint:entry delivery
func (e *Engine) Deliver(from transport.Addr, key chord.ID, payload any) {
	switch m := payload.(type) {
	case PublishMsg:
		idx, err := e.space.Index(m.Elem.Values)
		if err != nil {
			return
		}
		e.store.Add(idx, m.Elem)
		e.mutated(idx)
		e.replicate([]chord.Item{{Key: chord.ID(idx), Value: []Element{m.Elem}}})
	case UnpublishMsg:
		e.handleUnpublish(from, m)
	case *ClusterQueryMsg:
		v := *m
		clusterQueries.Put(m)
		if !e.node.Running() {
			e.handOnQuery(v)
			return
		}
		e.handleClusterQuery(v)
	case QueryShedMsg:
		e.handleShed(m)
	case *SubResultMsg:
		e.handleSubResult(m) // kept: linked into a report, or put back
	case QueryCancelMsg:
		e.handleQueryCancel(m)
	case ReplicaMsg:
		e.handleReplica(m)
	case ClientPublishMsg:
		_ = e.Publish(m.Elem)
	case ClientUnpublishMsg:
		_ = e.Unpublish(m.Elem)
	case ClientQueryMsg:
		e.handleClientQuery(m)
	}
}

// handOnQuery passes a batch that reached this node after it left the ring
// to the first successor that takes it, the one Leave handed the arc to
// (over a FIFO link the items arrive first), instead of answering from the
// emptied store. With no successor to take it, the subtree is lost.
func (e *Engine) handOnQuery(m ClusterQueryMsg) {
	fwd := clusterQueries.Get()
	*fwd = m
	if e.node.SendToSucc(fwd).IsZero() {
		clusterQueries.Put(fwd)
		sendPooled(e, &subResults, m.ReplyTo, SubResultMsg{QID: m.QID, Token: m.Token, Incomplete: true})
	}
}

// handleUnpublish removes the element locally (from the primary store at
// the owner, from the replica store at replica holders) and, at the owner,
// fans the removal out to the successors that may hold replicas.
func (e *Engine) handleUnpublish(from transport.Addr, m UnpublishMsg) {
	idx, err := e.space.Index(m.Elem.Values)
	if err != nil {
		return
	}
	if m.Replica {
		e.replicas.Remove(idx, m.Elem)
		// The arc may have shifted since replication: clear a promoted copy
		// too so owner changes cannot resurrect the element.
		if e.store.Remove(idx, m.Elem) {
			e.mutated(idx)
		}
		// A predecessor adopted between the key and this node got copies
		// from ArcChanged the owner may not know of; pass the removal back.
		if p := e.node.Pred(); p.Addr != from && e.node.Succ().Addr != from &&
			e.node.Space().BetweenOpen(p.ID, chord.ID(idx), e.node.Self().ID) {
			e.send(p.Addr, m)
		}
		return
	}
	if e.store.Remove(idx, m.Elem) {
		e.mutated(idx)
	}
	if e.opts.Replicas > 0 {
		// The whole successor list: a former replica holder would promote
		// its stale copy once its arc grew over the key.
		for _, s := range e.node.SuccList() {
			if s.Addr != e.node.Self().Addr {
				e.send(s.Addr, UnpublishMsg{Elem: m.Elem, Replica: true})
			}
		}
	}
}

// handleClientQuery serves a non-member client: parse, collect the query
// as root — limited to the client's top-k when it asked for one, so the
// tail of refinement is never dispatched — and ship the result back.
func (e *Engine) handleClientQuery(m ClientQueryMsg) {
	q, err := keyspace.Parse(m.Query)
	if err != nil {
		e.send(m.ReplyTo, ClientResultMsg{Token: m.Token, Err: err.Error()})
		return
	}
	e.collect(q, m.Limit, func(r Result) {
		out := ClientResultMsg{Token: m.Token, QID: r.QID, Matches: r.Matches}
		if r.Err != nil {
			out.Err = r.Err.Error()
		}
		e.send(m.ReplyTo, out)
	})
}

func (e *Engine) handleClusterQuery(m ClusterQueryMsg) {
	ref := m.Trace.OrRoot()
	region, err := e.space.RegionInto(m.Query, &e.region)
	if err != nil {
		// The query cannot be evaluated here: report the subtree lost, so
		// the root returns ErrPartialResult rather than a short answer.
		sendPooled(e, &subResults, m.ReplyTo, SubResultMsg{QID: m.QID, Token: m.Token, Incomplete: true})
		return
	}
	var cacheKey string
	if e.rcache != nil {
		cacheKey = resultCacheKey(m.Query, m.Clusters)
		if matches, ok := e.rcache.get(cacheKey); ok {
			// Popular-cluster hit: this exact batch previously resolved as a
			// leaf against a store that has not mutated under it since. Skip
			// refinement entirely and answer now.
			e.met.cacheHits.Inc()
			r := SubResultMsg{QID: m.QID, Token: m.Token, Matches: matches}
			e.capReport(&r, m.Keep, m.From)
			sendPooled(e, &subResults, m.ReplyTo, r)
			return
		}
		// Not counted as a miss yet: whether this lookup was cacheable at
		// all is only known once the subtree completes (leaf vs inner) —
		// finishSubtree records it as a miss or a bypass.
	}
	st := subtrees.Get()
	*st = subtree{
		qid: m.QID, q: m.Query, parent: m.ReplyTo, parentToken: m.Token,
		kind: "cluster", clustersIn: len(m.Clusters),
		keep: m.Keep, from: m.From, cacheKey: cacheKey,
		holds: 1, // this frame's, released on return
	}
	e.held++
	if cacheKey != "" {
		curve := e.space.Curve()
		st.cacheSpans = make([]sfc.Interval, len(m.Clusters))
		for i, c := range m.Clusters {
			st.cacheSpans[i] = c.Span(curve)
		}
	}
	if len(m.Clusters) > 0 {
		st.prefix = m.Clusters[0].Prefix
		st.level = m.Clusters[0].Level
	}
	if ref.Sampled() {
		st.spanID = e.newSpanID()
		st.ref = ref
		st.startNS = e.nowNS()
	}
	e.inbound[inboundKey{from: m.ReplyTo, token: m.Token}] = st
	admitted := e.submitClusters(st, m.Clusters, region)
	if !admitted {
		delete(e.inbound, inboundKey{from: m.ReplyTo, token: m.Token})
		st.finished = true // nothing was admitted, nothing will report
		e.met.shedRemote.Inc()
		e.send(m.ReplyTo, QueryShedMsg{QID: m.QID, Token: m.Token, RetryAfterMS: e.retryAfterHint().Milliseconds()})
	}
	e.release(st)
}

// clusterResolved takes a remote subtree's refined clusters and keeps its
// local matches for its report: a leaf of the query tree finishes at once,
// an inner subtree dispatches the rest.
func (e *Engine) clusterResolved(st *subtree, matches []Element, remote []sfc.Refined, local int) {
	e.noteProcessed(st.qid, local, len(matches), e.opts.Sink != nil)
	st.localDone = local
	st.localMatches = len(matches)
	st.matches = matches
	if len(remote) == 0 {
		// Leaf of the query tree: finish immediately (records the span
		// and ships it with the result).
		st.dispatched = true
		e.finishSubtree(st)
		return
	}
	e.dispatchRemote(remote, st)
}

// handleShed maps an admission-control refusal onto the recovery path: the
// refused child is re-dispatched after the shedder's backoff hint (counting
// against its retry budget), or — when no recovery machinery is armed —
// abandoned immediately so the query degrades to an explicit partial result
// instead of hanging on a reply that will never come.
func (e *Engine) handleShed(m QueryShedMsg) {
	c, ok := e.children[m.Token]
	if !ok {
		return
	}
	c.st.checkLive()
	if c.st.finished {
		return
	}
	e.met.shedChild.Inc()
	if e.opts.SubtreeTimeout <= 0 {
		// No recovery deadline is armed: the subtree cannot be retried.
		e.abandonChild(c)
		return
	}
	// Pull the child's recovery deadline forward to the hint: childExpired
	// then re-routes the subtree through the ring as for a lost child.
	retry := time.Duration(m.RetryAfterMS) * time.Millisecond
	retry = min(max(retry, 5*time.Millisecond), e.opts.SubtreeTimeout)
	c.timer.Reset(retry)
}

// handleSubResult takes a child's report, which it owns from here: a
// root delivers it, an inner subtree links it into its own report, and a
// straggler's, or one for a finished subtree, goes back to the pool.
func (e *Engine) handleSubResult(m *SubResultMsg) {
	c, ok := e.children[m.Token]
	if !ok {
		putReports(m)
		return // straggler: child already answered, abandoned, or expired
	}
	delete(e.children, m.Token)
	c.timer.Stop()
	st := c.st
	defer giveBack(e, &childCalls, c, st) // the child holds st until the handler returns
	st.checkLive()
	if st.finished {
		putReports(m)
		return
	}
	if st.spanID != 0 {
		st.spans = append(st.spans, m.Spans...)
	}
	if m.Incomplete {
		st.incomplete = true
		st.noteCut(c.key) // a subtree below the child was lost
	}
	st.done++
	if st.stream != nil {
		// Root: the child's matches flow out to the sink; nothing
		// accumulates in st.matches.
		e.rootDeliver(st, m)
	} else {
		st.reports = st.reports.link(m)
	}
	e.settle(st)
}

// handleQueryCancel tears down the addressed remote subtree: it stops
// reporting (no SubResultMsg will be sent), any still-queued refinement
// completes into a no-op, and its own outstanding children are cancelled
// recursively. Unknown subtrees — already finished, never arrived, or torn
// down by an earlier cancel — are ignored; cancellation is best effort.
func (e *Engine) handleQueryCancel(m QueryCancelMsg) {
	key := inboundKey{from: m.ReplyTo, token: m.Token}
	st, ok := e.inbound[key]
	if !ok || st.finished {
		return
	}
	e.met.cancelsRecv.Inc()
	delete(e.inbound, key)
	st.finished = true
	putReports(st.reports)
	st.reports = nil
	e.teardownChildren(st)
}

// HandoverOut implements chord.App. When replication is enabled the
// departing items are retained locally as replicas (this node is now one
// of the new owner's successors).
//
//lint:entry delivery
func (e *Engine) HandoverOut(a, b chord.ID) []chord.Item {
	items := e.store.HandoverOut(a, b)
	if e.opts.Replicas > 0 {
		e.replicas.AddBatchUnique(items)
	}
	e.mutatedBatch(nil)
	return items
}

// HandoverIn implements chord.App.
//
//lint:entry delivery
func (e *Engine) HandoverIn(items []chord.Item) {
	e.mutatedBatch(e.store.addBatch(items, false))
}

// Load implements chord.App: the number of stored keys.
func (e *Engine) Load() int { return e.store.Keys() }

var _ chord.App = (*Engine)(nil)
