package chord

import (
	"strconv"

	"squid/internal/telemetry"
)

// lookupHopBuckets bounds the lookup-hop histogram: a consistent ring
// resolves in O(log N) hops, so small powers of two cover realistic rings
// and the +Inf bucket catches churn detours.
var lookupHopBuckets = []int64{1, 2, 4, 8, 16, 32, 64}

// nodeMetrics holds this node's children of the shared telemetry families.
// The instruments are atomic, so any goroutine (metric scrapers, the
// simulator) may snapshot them without entering the delivery goroutine.
type nodeMetrics struct {
	findRetries     *telemetry.Counter
	stateRetries    *telemetry.Counter
	findFailures    *telemetry.Counter
	stateFailures   *telemetry.Counter
	lookupHops      *telemetry.Histogram
	stabilizeRounds *telemetry.Counter
	fingerFixes     *telemetry.Counter
	routeForwards   *telemetry.Counter
	succRejects     *telemetry.Counter

	// Routed messages dropped at the hop limit, by kind.
	findDrops, routeDrops, joinDrops, confirmDrops *telemetry.Counter
}

// newNodeMetrics resolves the node's metric children once, so every
// increment on the hot path is a single lock-free atomic op.
func newNodeMetrics(reg *telemetry.Registry, id ID) nodeMetrics {
	node := strconv.FormatUint(uint64(id), 16)
	retries := reg.CounterVec("squid_chord_rpc_retries_total",
		"ring RPC attempts beyond each call's first, by operation", "node", "op")
	failures := reg.CounterVec("squid_chord_rpc_failures_total",
		"ring RPCs that failed after all configured retries, by operation", "node", "op")
	drops := reg.CounterVec("squid_chord_hop_limit_drops_total",
		"routed messages dropped at the hop limit, by kind", "node", "kind")
	return nodeMetrics{
		findRetries:   retries.With(node, "find"),
		stateRetries:  retries.With(node, "state"),
		findFailures:  failures.With(node, "find"),
		stateFailures: failures.With(node, "state"),
		lookupHops: reg.HistogramVec("squid_chord_lookup_hops",
			"FindMsg sends per FindSuccessor lookup answered by another node (a lookup this node answers itself is not observed)", lookupHopBuckets, "node").With(node),
		stabilizeRounds: reg.CounterVec("squid_chord_stabilize_rounds_total",
			"stabilization rounds that probed the successor", "node").With(node),
		fingerFixes: reg.CounterVec("squid_chord_finger_fixes_total",
			"periodic finger-table refresh probes issued", "node").With(node),
		routeForwards: reg.CounterVec("squid_chord_route_forwards_total",
			"routed messages forwarded one hop toward their key", "node").With(node),
		succRejects: reg.CounterVec("squid_chord_succ_candidates_rejected_total",
			"successor candidates refused by stabilization because their reachability probe failed", "node").With(node),
		findDrops: drops.With(node, "find"), routeDrops: drops.With(node, "route"),
		joinDrops: drops.With(node, "join"), confirmDrops: drops.With(node, "confirm"),
	}
}
