package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// QueryID identifies one flexible query across the system: the engine
// issues it at the query root, every trace span and telemetry surface
// carries it, and squidctl feeds it back to the trace endpoint. It is a
// distinct type so query ids cannot be mixed up with span ids or ring
// keys at compile time; squid re-exports it as squid.QueryID.
type QueryID uint64

// TraceMode says what a message's trace context means. The zero value is
// deliberately TraceAbsent: a message built without trace context carries
// it, and OrRoot turns it into a sampled root context.
type TraceMode uint8

const (
	// TraceAbsent marks a ref from a message with no trace context. OrRoot
	// treats it as a fresh root span.
	TraceAbsent TraceMode = iota
	// TraceOff marks a query whose initiator is not collecting spans.
	TraceOff
	// TraceOn marks a sampled query: every hop records a span and ships it
	// back up the query tree.
	TraceOn
)

// TraceRef is the trace context a query-tree RPC carries downward: the
// parent span the receiver should attach under, the receiver's refinement
// depth, and whether spans are being collected at all. It is a plain
// value, cheap to copy.
type TraceRef struct {
	Parent uint64 // span id of the dispatching subtree; 0 at the root
	Depth  int    // refinement depth of the receiver (root children are 1)
	Mode   TraceMode
}

// Sampled reports whether the receiver should record and return spans.
func (r TraceRef) Sampled() bool { return r.Mode == TraceOn }

// OrRoot normalizes a ref decoded from the wire: a context-free (zero) ref
// defaults to a sampled root span, so a subtree dispatched without context
// still yields an observable subtree instead of silently vanishing from
// the trace. Refs that carry explicit context pass through unchanged.
func (r TraceRef) OrRoot() TraceRef {
	if r.Mode == TraceAbsent {
		return TraceRef{Parent: 0, Depth: 0, Mode: TraceOn}
	}
	return r
}

// Child derives the context for a subtree dispatched from the span id
// owning this level.
func (r TraceRef) Child(spanID uint64) TraceRef {
	return TraceRef{Parent: spanID, Depth: r.Depth + 1, Mode: r.Mode}
}

// Span is one node's record of handling one slice of a query tree. All
// fields are value types so spans travel inline inside SubResultMsg.
type Span struct {
	QID    QueryID // query id; doubles as the trace id
	ID     uint64  // unique within the trace
	Parent uint64  // parent span id; 0 for the root span
	Depth  int     // refinement depth (root is 0)

	Node uint64 // ring identifier of the recording node
	Addr string // transport address of the recording node

	// Kind classifies the span: "root" (query initiator), "cluster"
	// (refinement hop, an exact query's one full-resolution cell
	// included), "lost" (a subtree the dispatcher gave up on: abandoned
	// after exhausting re-dispatch retries, or cut by a cancelled query).
	Kind string

	Prefix   uint64 // representative cluster prefix handled (first in batch)
	Level    int    // refinement level of that prefix
	Clusters int    // clusters received in the batch
	Local    int    // clusters resolved locally (owned-run scan)
	Children int    // child subtrees dispatched onward
	Matches  int    // matching elements found locally
	Retries  int    // re-dispatches this span performed on its children

	Abandoned bool // true on "lost" spans: the subtree never reported back

	StartNS, EndNS int64 // clock-relative; 0 under the simulator's nil clock
}

// Trace is a reassembled query tree: every span the completed query
// reported, rooted at the initiator.
type Trace struct {
	QID     QueryID
	Partial bool // the query returned ErrPartialResult
	Spans   []Span
}

// Root returns the root span, or nil if the trace is empty/corrupt.
func (t *Trace) Root() *Span {
	for i := range t.Spans {
		if t.Spans[i].Parent == 0 && t.Spans[i].Kind == "root" {
			return &t.Spans[i]
		}
	}
	return nil
}

// Nodes returns the set of ring identifiers that recorded at least one
// non-lost span — the nodes the query tree provably visited.
func (t *Trace) Nodes() map[uint64]bool {
	out := make(map[uint64]bool, len(t.Spans))
	for _, s := range t.Spans {
		if s.Kind != "lost" {
			out[s.Node] = true
		}
	}
	return out
}

// Visited reports whether node recorded a span in this trace.
func (t *Trace) Visited(node uint64) bool {
	for _, s := range t.Spans {
		if s.Kind != "lost" && s.Node == node {
			return true
		}
	}
	return false
}

// Lost returns the spans marking abandoned subtrees.
func (t *Trace) Lost() []Span {
	var out []Span
	for _, s := range t.Spans {
		if s.Abandoned {
			out = append(out, s)
		}
	}
	return out
}

// Matches sums the locally-found matches across all spans.
func (t *Trace) Matches() int {
	n := 0
	for _, s := range t.Spans {
		n += s.Matches
	}
	return n
}

// Render writes the trace as an indented tree, children ordered by span
// id, orphans (parent never reported) grouped at the end.
func (t *Trace) Render(w io.Writer) {
	byParent := make(map[uint64][]Span)
	ids := make(map[uint64]bool, len(t.Spans))
	for _, s := range t.Spans {
		ids[s.ID] = true
	}
	for _, s := range t.Spans {
		byParent[s.Parent] = append(byParent[s.Parent], s)
	}
	for _, kids := range byParent {
		sort.Slice(kids, func(i, j int) bool { return kids[i].ID < kids[j].ID })
	}
	status := "complete"
	if t.Partial {
		status = "PARTIAL"
	}
	fmt.Fprintf(w, "query %d: %s, %d spans, %d matches\n", t.QID, status, len(t.Spans), t.Matches())
	var walk func(parent uint64, indent string)
	walk = func(parent uint64, indent string) {
		for _, s := range byParent[parent] {
			fmt.Fprintf(w, "%s%s\n", indent, s.line())
			walk(s.ID, indent+"  ")
		}
	}
	walk(0, "  ")
	for parent, kids := range byParent {
		if parent == 0 || ids[parent] {
			continue
		}
		fmt.Fprintf(w, "  (orphaned under missing span %x)\n", parent)
		for _, s := range kids {
			fmt.Fprintf(w, "    %s\n", s.line())
			walk(s.ID, "      ")
		}
	}
}

// line renders one span for the tree dump.
func (s Span) line() string {
	switch s.Kind {
	case "lost":
		return fmt.Sprintf("LOST node=%x prefix=%x/%d depth=%d (never reported)",
			s.Node, s.Prefix, s.Level, s.Depth)
	default:
		return fmt.Sprintf("%s node=%x prefix=%x/%d depth=%d clusters=%d local=%d children=%d matches=%d retries=%d",
			s.Kind, s.Node, s.Prefix, s.Level, s.Depth, s.Clusters, s.Local, s.Children, s.Matches, s.Retries)
	}
}

// TraceStore holds completed traces in a bounded FIFO. Safe for concurrent
// use; the scrape goroutine reads while the node goroutine adds.
type TraceStore struct {
	mu    sync.Mutex
	cap   int
	byQID map[QueryID]*Trace
	order []QueryID
}

// NewTraceStore returns a store keeping at most capacity traces (oldest
// evicted first). capacity <= 0 defaults to 64.
func NewTraceStore(capacity int) *TraceStore {
	if capacity <= 0 {
		capacity = 64
	}
	return &TraceStore{
		cap:   capacity,
		byQID: make(map[QueryID]*Trace),
	}
}

// Add stores a completed trace, evicting the oldest if full. Re-adding a
// QID replaces the stored trace without consuming capacity.
func (s *TraceStore) Add(t Trace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byQID[t.QID]; ok {
		s.byQID[t.QID] = &t
		return
	}
	for len(s.order) >= s.cap {
		delete(s.byQID, s.order[0])
		s.order = s.order[1:]
	}
	s.byQID[t.QID] = &t
	s.order = append(s.order, t.QID)
}

// Get returns the trace for one query id.
func (s *TraceStore) Get(qid QueryID) (Trace, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.byQID[qid]; ok {
		return *t, true
	}
	return Trace{}, false
}

// Last returns the most recently added trace.
func (s *TraceStore) Last() (Trace, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.order) == 0 {
		return Trace{}, false
	}
	return *s.byQID[s.order[len(s.order)-1]], true
}

// IDs returns the stored query ids, oldest first.
func (s *TraceStore) IDs() []QueryID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]QueryID(nil), s.order...)
}
