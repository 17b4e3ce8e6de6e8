package squid

import (
	"iter"

	"squid/internal/keyspace"
	"squid/internal/sfc"
	"squid/internal/telemetry"
	"squid/internal/transport"
)

// The per-hop query kinds — ClusterQueryMsg and SubResultMsg — travel by
// pointer and are recycled through one pool per kind (transport.MsgPool):
// a message passed to a send is dead to the sender. The engine copies a
// received ClusterQueryMsg out and puts the pointer back before handling
// it. A received SubResultMsg is kept: the subtree it reports to links it
// into its own report, and the query's root, a straggler check or a
// teardown puts it back. Every other kind travels as a value.
var (
	clusterQueries transport.MsgPool[ClusterQueryMsg]
	subResults     transport.MsgPool[SubResultMsg]
)

// PublishMsg carries a data element to the node owning its curve index.
type PublishMsg struct {
	Elem Element
}

// UnpublishMsg removes a previously published element at its index owner;
// replica holders receive the same message via the owner's fan-out.
type UnpublishMsg struct {
	Elem    Element
	Replica bool // true when fanned out to replica holders
}

// ClusterQueryMsg ships one or more clusters of a query's refinement tree
// to the node owning their lowest indices. With the aggregation
// optimization a message batches all sibling clusters owned by one node.
// An exact query's one message holds its point's full-resolution cell
// (Level == the curve's Bits), routed to the owner of that index.
//
// ReplyTo/Token name the sender's subtree: the receiver answers with one
// SubResultMsg carrying Token once its whole subtree of the refinement
// tree has completed. Results therefore flow up the query tree
// (Dijkstra-Scholten-style termination), which keeps completion detection
// independent of message ordering across transports.
type ClusterQueryMsg struct {
	QID   QueryID
	Query keyspace.Query
	// Clusters are the refinement-tree clusters to resolve, each with its
	// Complete flag (subcube entirely inside the query region). The slice
	// is shared with the sender's bookkeeping and read-only once sent:
	// nobody writes to it after the message leaves.
	Clusters []sfc.Refined
	ReplyTo  transport.Addr
	Token    uint64
	// Keep and From size the replies of a Limit(k) stream's subtree to the
	// page: every report the receiver sends (its local matches with its
	// children's reports, or a result-cache hit) drops the matches below
	// curve index From and keeps only the lowest Keep by curve index, in
	// store order within one index. The root sets Keep = k + skip + 1 and
	// From to its cursor's position, where skip counts the elements at that
	// position already delivered (both 0 without a cursor); inner subtrees
	// copy the pair into their own dispatches. Keep 0 is uncapped, as for
	// every unlimited query. DESIGN.md §4l says why the cap is exact.
	Keep int
	From uint64
	// Trace is the tracing context of the dispatching subtree. The zero
	// ref carries no context; OrRoot turns it into a root span.
	Trace telemetry.TraceRef
}

// QueryShedMsg tells a dispatcher that the receiver refused its
// ClusterQueryMsg under admission control: the subtree was not processed
// and no SubResultMsg will come. The dispatcher maps the shed onto its
// recovery path — re-dispatch after RetryAfterMS (counting against the
// subtree's retry budget), or degrade to a partial result when no recovery
// machinery is armed.
type QueryShedMsg struct {
	QID   QueryID
	Token uint64
	// RetryAfterMS is the shedding node's backoff hint in milliseconds,
	// derived from its queue depth.
	RetryAfterMS int64
}

// SubResultMsg reports a completed subtree of the query's refinement tree
// to its parent, once: every match found in that subtree. Incomplete marks
// a subtree that abandoned part of its refinement to failures; it
// propagates up so the root can degrade to an explicit partial Result
// instead of a silently short one.
//
// Matches holds the sender's own matches. In process, the reports its
// children sent it follow by pointer, uncopied (Batches walks them); the
// codec flattens them into Matches, so the bytes on the wire are one list
// and a decoded report has none linked. Only the first report's
// Incomplete and Spans count: a subtree folds each child's into its own
// as it links the child's report.
type SubResultMsg struct {
	QID        QueryID
	Token      uint64
	Matches    []Element
	Incomplete bool
	// Spans carries the subtree's collected trace spans up toward the query
	// root (empty when the query is not sampled).
	Spans []telemetry.Span

	// next is the following report of the chain; last, set on a chain's
	// first report only, is its final one (nil when it is alone).
	next, last *SubResultMsg
}

// Batches yields the report's matches batch by batch: its own, then those
// of each report linked behind it, in the order the codec flattens them.
func (m *SubResultMsg) Batches() iter.Seq[[]Element] {
	return func(yield func([]Element) bool) {
		for r := m; r != nil; r = r.next {
			if !yield(r.Matches) {
				return
			}
		}
	}
}

// link appends the chain c heads behind the chain m heads; c may be nil.
// It returns m, or c when m is nil.
func (m *SubResultMsg) link(c *SubResultMsg) *SubResultMsg {
	switch {
	case m == nil:
		return c
	case c == nil:
		return m
	}
	end := m
	if m.last != nil {
		end = m.last
	}
	end.next = c
	m.last = c
	if c.last != nil {
		m.last, c.last = c.last, nil
	}
	return m
}

// putReports puts every report of the chain r heads back in its pool.
func putReports(r *SubResultMsg) {
	for r != nil {
		done := r
		r = r.next
		subResults.Put(done)
	}
}

// QueryCancelMsg tears down an in-flight remote subtree: the dispatcher no
// longer needs its result (top-k satisfied, context cancelled, consumer
// stopped a stream). Token is the receiver's parentToken — the token the
// dispatcher assigned the child — and ReplyTo identifies the dispatcher, so
// the pair addresses the subtree even when the message rode the ring
// through intermediate hops. The receiver abandons the subtree, sends no
// SubResultMsg, and recursively cancels its own outstanding children. Best
// effort: a lost cancel only costs the work it would have saved.
type QueryCancelMsg struct {
	QID     QueryID
	Token   uint64
	ReplyTo transport.Addr
}

// ClientPublishMsg lets a non-member client (squidctl) publish through any
// ring node: the receiving engine indexes and routes the element.
type ClientPublishMsg struct {
	Elem Element
}

// ClientUnpublishMsg lets a client remove an element through any ring
// node.
type ClientUnpublishMsg struct {
	Elem Element
}

// ClientQueryMsg lets a client run a flexible query through any ring node;
// the node acts as the query root and answers ReplyTo with a
// ClientResultMsg carrying Token. Limit > 0 asks for top-k: the node runs
// the query as a Limit(k) stream, so refinement past the k-th match is
// never dispatched.
type ClientQueryMsg struct {
	Query   string // keyspace query syntax, e.g. "(comp*, *)"
	ReplyTo transport.Addr
	Token   uint64
	Limit   int
}

// ClientResultMsg answers a ClientQueryMsg. QID is the ring-side query
// identifier, which clients feed to the trace endpoint (squidctl trace).
type ClientResultMsg struct {
	Token   uint64
	QID     QueryID
	Matches []Element
	Err     string
}
