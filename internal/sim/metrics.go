package sim

import (
	"sync"

	"squid/internal/chord"
	"squid/internal/squid"
	"squid/internal/transport"
)

// QueryMetrics aggregates one query's cost, mirroring the paper's
// evaluation metrics (Section 4.1): the nodes that route it, the nodes
// that process it, the nodes holding matches, and the messages used.
type QueryMetrics struct {
	QID squid.QueryID

	// RouteMessages counts routed message transmissions (every hop of the
	// initial cluster dispatches and exact lookups).
	RouteMessages int
	// ProbeMessages counts FindSuccessor transmissions (every hop) issued
	// by the aggregation optimization's owner probes.
	ProbeMessages int
	// ProbeReplies counts FoundMsg replies to those probes.
	ProbeReplies int
	// ClusterMessages counts direct batched sub-query messages.
	ClusterMessages int
	// PayloadHops counts transmissions that carry cluster payloads: the
	// direct batched messages plus every routed hop of a blind-routed
	// cluster. This is what the paper's aggregation optimization reduces
	// (probe handshakes carry no payload).
	PayloadHops int
	// ResultMessages counts result reports back to the initiator.
	ResultMessages int
	// CancelMessages counts QueryCancelMsg transmissions — the teardown a
	// top-k stream sends when Limit is reached before refinement finishes.
	CancelMessages int

	// RoutingNodes received at least one forwarded message for the query
	// without necessarily processing it.
	RoutingNodes map[chord.ID]bool
	// ProcessingNodes refined clusters and searched their stores.
	ProcessingNodes map[chord.ID]bool
	// DataNodes are processing nodes that found at least one match.
	DataNodes map[chord.ID]bool
	// Matches is the total number of matching elements reported.
	Matches int
}

// Messages is the paper's headline message count: the forward-path
// transmissions that resolve the query (routing hops, owner probes and
// sub-query messages). Replies are tallied separately; including them is
// TotalTransmissions.
func (m *QueryMetrics) Messages() int {
	return m.RouteMessages + m.ProbeMessages + m.ClusterMessages
}

// TotalTransmissions counts every message transmission attributable to the
// query, replies included.
func (m *QueryMetrics) TotalTransmissions() int {
	return m.Messages() + m.ProbeReplies + m.ResultMessages + m.CancelMessages
}

// ClusteringRatio is the paper's measure of the Hilbert mapping's locality
// (Section 4.1.1): the number of matches divided by the number of data
// nodes storing them. High values mean matching data is packed onto few
// nodes. Zero when the query matched nothing.
func (m *QueryMetrics) ClusteringRatio() float64 {
	if len(m.DataNodes) == 0 {
		return 0
	}
	return float64(m.Matches) / float64(len(m.DataNodes))
}

func newQueryMetrics(qid squid.QueryID) *QueryMetrics {
	return &QueryMetrics{
		QID:             qid,
		RoutingNodes:    make(map[chord.ID]bool),
		ProcessingNodes: make(map[chord.ID]bool),
		DataNodes:       make(map[chord.ID]bool),
	}
}

func (m *QueryMetrics) clone() QueryMetrics {
	c := *m
	c.RoutingNodes = copySet(m.RoutingNodes)
	c.ProcessingNodes = copySet(m.ProcessingNodes)
	c.DataNodes = copySet(m.DataNodes)
	return c
}

func copySet(s map[chord.ID]bool) map[chord.ID]bool {
	out := make(map[chord.ID]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

// Metrics collects per-query metrics across the whole simulated network.
// It implements squid.MetricsSink and doubles as the transport observer.
// Safe for concurrent use.
type Metrics struct {
	mu       sync.Mutex
	byQuery  map[squid.QueryID]*QueryMetrics
	idByAddr map[transport.Addr]chord.ID
}

// NewMetrics returns an empty collector. The address table maps transport
// addresses to ring identifiers for node attribution.
func NewMetrics() *Metrics {
	return &Metrics{
		byQuery:  make(map[squid.QueryID]*QueryMetrics),
		idByAddr: make(map[transport.Addr]chord.ID),
	}
}

// RegisterAddr records the ring identifier behind a transport address.
func (ms *Metrics) RegisterAddr(addr transport.Addr, id chord.ID) {
	ms.mu.Lock()
	ms.idByAddr[addr] = id
	ms.mu.Unlock()
}

func (ms *Metrics) query(qid squid.QueryID) *QueryMetrics {
	qm, ok := ms.byQuery[qid]
	if !ok {
		qm = newQueryMetrics(qid)
		ms.byQuery[qid] = qm
	}
	return qm
}

// Processed implements squid.MetricsSink.
func (ms *Metrics) Processed(qid squid.QueryID, node chord.ID, clusters, matches int) {
	if qid == 0 {
		return
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	qm := ms.query(qid)
	qm.ProcessingNodes[node] = true
	if matches > 0 {
		qm.DataNodes[node] = true
	}
	qm.Matches += matches
}

// Observe implements the transport.Observer contract: it classifies every
// message the simulated network carries and attributes traced ones to
// their query. The per-hop kinds arrive as pointers (the only form they
// travel in); Observe reads them and keeps nothing.
func (ms *Metrics) Observe(from, to transport.Addr, msg any) {
	switch m := msg.(type) {
	case *chord.RouteMsg:
		if m.Trace == 0 {
			return
		}
		ms.mu.Lock()
		qm := ms.query(squid.QueryID(m.Trace))
		qm.RouteMessages++
		switch m.Payload.(type) {
		case *squid.ClusterQueryMsg:
			qm.PayloadHops++
		case squid.QueryCancelMsg:
			// Teardown rides the ring (the child's owner may have moved);
			// count every hop as cancel traffic.
			qm.CancelMessages++
		}
		qm.RoutingNodes[ms.idByAddr[to]] = true
		ms.mu.Unlock()
	case *chord.FindMsg:
		if m.Trace == 0 {
			return
		}
		ms.mu.Lock()
		qm := ms.query(squid.QueryID(m.Trace))
		qm.ProbeMessages++
		qm.RoutingNodes[ms.idByAddr[to]] = true
		ms.mu.Unlock()
	case *chord.FoundMsg:
		if m.Trace == 0 {
			return
		}
		ms.mu.Lock()
		ms.query(squid.QueryID(m.Trace)).ProbeReplies++
		ms.mu.Unlock()
	case *squid.ClusterQueryMsg:
		ms.mu.Lock()
		qm := ms.query(m.QID)
		qm.ClusterMessages++
		qm.PayloadHops++
		ms.mu.Unlock()
	case *squid.SubResultMsg:
		ms.mu.Lock()
		ms.query(m.QID).ResultMessages++
		ms.mu.Unlock()
	case squid.QueryCancelMsg:
		ms.mu.Lock()
		ms.query(m.QID).CancelMessages++
		ms.mu.Unlock()
	}
}

// ForQuery returns a snapshot of one query's metrics.
func (ms *Metrics) ForQuery(qid squid.QueryID) QueryMetrics {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if qm, ok := ms.byQuery[qid]; ok {
		return qm.clone()
	}
	return *newQueryMetrics(qid)
}

// Reset discards all recorded queries (the address table is kept).
func (ms *Metrics) Reset() {
	ms.mu.Lock()
	ms.byQuery = make(map[squid.QueryID]*QueryMetrics)
	ms.mu.Unlock()
}

var _ squid.MetricsSink = (*Metrics)(nil)
