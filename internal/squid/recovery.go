package squid

import (
	"strconv"

	"squid/internal/telemetry"
)

// engineMetrics holds this engine's children of the shared telemetry
// families. Instruments are atomic: any goroutine (metric scrapers, the
// simulator) may snapshot them without entering the node's delivery
// goroutine.
type engineMetrics struct {
	queries      *telemetry.Counter
	clustersDone *telemetry.Counter
	matches      *telemetry.Counter
	subtreesSent *telemetry.Counter

	redispatches *telemetry.Counter
	abandoned    *telemetry.Counter
	partials     *telemetry.Counter

	probeHits   *telemetry.Counter
	probeMisses *telemetry.Counter

	// Query-scheduler instruments: pool depth, queue wait, admission sheds
	// (by where the shed was observed).
	schedDepth *telemetry.Gauge
	schedWait  *telemetry.Histogram
	shedRoot   *telemetry.Counter
	shedRemote *telemetry.Counter
	shedChild  *telemetry.Counter

	keysHeld     *telemetry.Gauge
	replicaItems *telemetry.Counter
	replicaFulls *telemetry.Counter

	// Streaming-delivery instruments: streams opened, batches pushed to
	// consumers, cancel teardown traffic in both directions, and
	// popular-cluster result-cache outcomes.
	streams       *telemetry.Counter
	streamBatches *telemetry.Counter
	cancelsSent   *telemetry.Counter
	cancelsRecv   *telemetry.Counter
	cacheHits     *telemetry.Counter
	cacheMisses   *telemetry.Counter
	cacheBypass   *telemetry.Counter
}

// schedWaitBounds buckets scheduler queue wait in nanoseconds: 100µs, 1ms,
// 10ms, 100ms, 1s (an +Inf bucket is implicit).
var schedWaitBounds = []int64{100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000}

// newEngineMetrics resolves the engine's metric children once (per-node
// labels), so hot-path increments are single lock-free atomic ops.
func newEngineMetrics(reg *telemetry.Registry, id uint64) engineMetrics {
	node := strconv.FormatUint(id, 16)
	recovery := reg.CounterVec("squid_engine_recovery_total",
		"query-recovery events: redispatch, abandon, partial", "node", "event")
	probe := reg.CounterVec("squid_engine_probe_cache_total",
		"owner-probe cache lookups at the query root", "node", "outcome")
	shed := reg.CounterVec("squid_sched_shed_total",
		"refinement jobs refused under admission control: root (local query), remote (incoming subtree), child (shed notice received for a dispatched child)",
		"node", "kind")
	cancel := reg.CounterVec("squid_stream_cancels_total",
		"QueryCancelMsg teardown traffic: sent (this node cut a child subtree) and recv (a dispatcher cut a subtree running here)",
		"node", "dir")
	rcache := reg.CounterVec("squid_result_cache_total",
		"popular-cluster result-cache lookups on incoming cluster batches: hit (answered from cache), miss (cacheable leaf, now cached), bypass (inner subtree, never cacheable)",
		"node", "outcome")
	return engineMetrics{
		queries: reg.CounterVec("squid_engine_queries_total",
			"flexible queries initiated at this node", "node").With(node),
		clustersDone: reg.CounterVec("squid_engine_clusters_processed_total",
			"refinement-tree clusters resolved against the local store", "node").With(node),
		matches: reg.CounterVec("squid_engine_matches_total",
			"matching elements found in the local store", "node").With(node),
		subtreesSent: reg.CounterVec("squid_engine_subtrees_dispatched_total",
			"child subtrees dispatched to other nodes", "node").With(node),
		redispatches: recovery.With(node, "redispatch"),
		abandoned:    recovery.With(node, "abandon"),
		partials:     recovery.With(node, "partial"),
		probeHits:    probe.With(node, "hit"),
		probeMisses:  probe.With(node, "miss"),
		schedDepth: reg.GaugeVec("squid_sched_pending_jobs",
			"refinement jobs admitted to the query scheduler but not yet completed", "node").With(node),
		schedWait: reg.HistogramVec("squid_sched_queue_wait_ns", "nanoseconds a refinement job waited between admission and a worker picking it up (0 under the simulator's nil clock)",
			schedWaitBounds, "node").With(node),
		shedRoot:   shed.With(node, "root"),
		shedRemote: shed.With(node, "remote"),
		shedChild:  shed.With(node, "child"),
		keysHeld: reg.GaugeVec("squid_store_keys_held",
			"distinct curve indices in the node's primary store", "node").With(node),
		replicaItems: reg.CounterVec("squid_replication_items_pushed_total",
			"items pushed to successor replicas (delta and full pushes)", "node").With(node),
		replicaFulls: reg.CounterVec("squid_replication_full_pushes_total",
			"full replica-set pushes (replica membership changed)", "node").With(node),
		streams: reg.CounterVec("squid_stream_queries_total",
			"streaming queries (QueryStream/QueryStreamFunc) initiated at this node", "node").With(node),
		streamBatches: reg.CounterVec("squid_stream_batches_total",
			"partial match batches delivered to local stream consumers", "node").With(node),
		cancelsSent: cancel.With(node, "sent"),
		cancelsRecv: cancel.With(node, "recv"),
		cacheHits:   rcache.With(node, "hit"),
		cacheMisses: rcache.With(node, "miss"),
		cacheBypass: rcache.With(node, "bypass"),
	}
}
