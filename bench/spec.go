package main

import "time"

// backend names the transport a workload's ring runs on.
type backend string

const (
	backendTCP    backend = "tcp"    // chord+squid members on real loopback sockets
	backendInproc backend = "inproc" // goroutine mailboxes, nothing encoded
	backendDES    backend = "des"    // dessim event core, virtual time
)

// queryMix names a query-pool recipe (see inputs.go).
type queryMix string

const (
	mixPaper  queryMix = "paper"  // Q1:Q2:Q3 = 1:1:1
	mixRange  queryMix = "range"  // Q3Ranges, Q3Keyword, broad Q1 prefixes
	mixBrowse queryMix = "browse" // Q1 only, Zipf-repeated, paged
)

// spec is one workload: the ring, the corpus, the query pool and the load
// shape. Every size is frozen here so that a run issues the same operation
// sequence on every machine; only the number of rounds depends on -seconds.
type spec struct {
	name    string
	why     string
	backend backend

	nodes int // ring members
	elems int // preloaded corpus
	dims  int // keyword-space dimensions
	bits  int // bits per axis
	vocab int // vocabulary size
	zipf  float64

	mix  queryMix
	pool int // distinct queries drawn (before de-duplication)

	clients int // closed-loop clients (0 on DES: open loop)
	// roundOps is the fixed number of client operations in one round; the
	// measured phase is a whole number of rounds.
	roundOps int

	resultCache int // squid.WithResultCache size, 0 = off
	uncapped    bool

	// DES only: open-loop arrival rate in queries per virtual second.
	arrivalPerSec int

	// Browse/write only.
	pageLimit int // Limit(k) of a browse page
	maxPages  int // pages per browse session
	lifetime  int // client ops between an element's Publish and its Unpublish
}

// Engine and ring settings shared by every workload.
const (
	probeCacheSize = 256
	subtreeTimeout = 5 * time.Second
	queryDeadline  = 10 * time.Second // an op slower than this counts as failed
	rpcTimeout     = 5 * time.Second
	settleWindow   = 500 * time.Millisecond
	desMinLatency  = 5 * time.Millisecond
	desMaxLatency  = 80 * time.Millisecond
	setupRepeats   = 5 // setups per run; setup_s is their median
	sampledQueries = 512
	layerProbeOps  = 1000 // direct calls per micro-probe (FindSuccessor, echo, ...)
	calibIters     = 40000
	refineMaxDepth = 8
	refineMaxNodes = 4096
	tapSampleCap   = 2048
)

// workloads is the frozen list BENCHMARK.json names.
var workloads = []spec{
	{
		name:    "tcp-mix",
		why:     "8 members on loopback TCP, paper mix Q1:Q2:Q3, 2 closed-loop clients: per-query compute is small, so wire, transport and chord routing do most of the work",
		backend: backendTCP,
		nodes:   8, elems: 20000, dims: 2, bits: 16, vocab: 1200, zipf: 1.2,
		mix: mixPaper, pool: 512, clients: 2, roundOps: 512,
	},
	{
		name:    "des-wan-mix",
		why:     "1000-node dessim ring, 5-80 ms links, paper mix open-loop at 50 queries per virtual second: no TCP, no codec; virtual latency is the protocol's critical path, wall rate the engine and event core",
		backend: backendDES,
		nodes:   1000, elems: 5000, dims: 2, bits: 16, vocab: 1200, zipf: 1.2,
		mix: mixPaper, pool: 2048, roundOps: 2048, arrivalPerSec: 50,
	},
	{
		name:    "inproc-range",
		why:     "64-node goroutine ring, 100000 elements in 3-D, range and broad-prefix queries, 2 closed-loop clients: nothing is encoded, so sfc refinement, store scans, scheduler and result assembly dominate",
		backend: backendInproc,
		nodes:   64, elems: 100000, dims: 3, bits: 21, vocab: 1200, zipf: 1.2,
		mix: mixRange, pool: 192, clients: 2, roundOps: 192, uncapped: true,
	},
	{
		name:    "tcp-browse-write",
		why:     "tcp-mix ring plus result cache: 80% Limit(10) pages resumed by cursor over a Zipf-repeated pool, 20% publish/unpublish: early termination, cancels, cache invalidation, store mutation beside reads",
		backend: backendTCP,
		nodes:   8, elems: 20000, dims: 2, bits: 16, vocab: 1200, zipf: 1.2,
		mix: mixBrowse, pool: 64, clients: 2, roundOps: 2000,
		resultCache: 1024, pageLimit: 10, maxPages: 3, lifetime: 1000,
	},
}

// scaled shrinks a workload for the smoke test: same shape, fewer nodes,
// elements and operations.
func (s spec) scaled(f float64) spec {
	sc := func(n, floor int) int {
		v := int(float64(n) * f)
		if v < floor {
			v = floor
		}
		if v > n {
			v = n
		}
		return v
	}
	s.nodes = sc(s.nodes, 4)
	s.elems = sc(s.elems, 400)
	s.vocab = sc(s.vocab, 120)
	s.pool = sc(s.pool, 12)
	s.roundOps = sc(s.roundOps, 24)
	if s.lifetime > 0 {
		s.lifetime = sc(s.lifetime, 40)
	}
	return s
}

func workloadByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// metricDef is one catalogue entry. endToEnd metrics are printed by the
// untraced pass (-trace 0), the rest by the traced pass (-trace 1).
type metricDef struct {
	name     string
	unit     string
	better   string // "lower" or "higher"
	endToEnd bool
}

// catalogue lists every metric the benchmark emits, in print order. The
// smoke test holds it equal to BENCHMARK.json.
//
// The four timing metrics head the per-layer list because the same-code
// noise check demoted them: on this class of machine their run-to-run spread
// on the TCP workloads (0.26-0.36 of the median) exceeds any bound the
// driver accepts, and the rule is to demote, not to widen (NOISE.md). They
// are still measured untraced.
var catalogue = []metricDef{
	{"setup_s", "s", "lower", true},
	{"msgs_per_query", "count", "lower", true},
	{"wire_bytes_per_query", "B", "lower", true},
	{"allocs_per_op", "count", "lower", true},
	{"alloc_kb_per_op", "KB", "lower", true},
	{"heap_live_mb", "MB", "lower", true},
	{"ok_share", "share", "higher", true},

	{"ops_per_s", "1/s", "higher", false},
	{"query_p50_ms", "ms", "lower", false},
	{"query_p99_ms", "ms", "lower", false},
	{"first_match_p50_ms", "ms", "lower", false},
	{"keyspace.region_us", "us", "lower", false},
	{"keyspace.matches_ns", "ns", "lower", false},
	{"sfc.refine_ns_per_cluster", "ns", "lower", false},
	{"sfc.refine_us_per_query", "us", "lower", false},
	{"sfc.clusters_per_query", "count", "lower", false},
	{"store.scan_us_per_query", "us", "lower", false},
	{"store.scanned_per_match", "ratio", "lower", false},
	{"store.add_us", "us", "lower", false},
	{"store.remove_us", "us", "lower", false},
	{"sched.queue_wait_p50_us", "us", "lower", false},
	{"sched.queue_wait_p99_us", "us", "lower", false},
	{"sched.shed_share", "share", "lower", false},
	{"engine.local_query_us", "us", "lower", false},
	{"engine.processing_nodes_per_query", "count", "lower", false},
	{"engine.data_nodes_per_query", "count", "lower", false},
	{"engine.subtrees_per_query", "count", "lower", false},
	{"engine.batch_fill", "ratio", "higher", false},
	{"engine.redispatch_share", "share", "lower", false},
	{"engine.probe_cache_hit_share", "share", "higher", false},
	{"engine.publish_p50_ms", "ms", "lower", false},
	{"stream.batches_per_query", "count", "lower", false},
	{"stream.cancel_msgs_per_query", "count", "lower", false},
	{"stream.first_match_share", "share", "lower", false},
	{"cache.hit_share", "share", "higher", false},
	{"cache.bypass_share", "share", "lower", false},
	{"chord.lookup_hops_mean", "count", "lower", false},
	{"chord.route_forwards_per_query", "count", "lower", false},
	{"chord.find_successor_us", "us", "lower", false},
	{"chord.rpc_retry_share", "share", "lower", false},
	{"wire.encode_ns_per_msg", "ns", "lower", false},
	{"wire.decode_ns_per_msg", "ns", "lower", false},
	{"wire.bytes_per_msg", "B", "lower", false},
	{"wire.encode_allocs_per_msg", "count", "lower", false},
	{"transport.tcp_send_p50_us", "us", "lower", false},
	{"transport.tcp_frames_per_flush", "ratio", "higher", false},
	{"transport.tcp_bytes_per_frame", "B", "lower", false},
	{"transport.tcp_echo_rtt_us", "us", "lower", false},
	{"transport.inproc_send_ns", "ns", "lower", false},
	{"transport.send_error_share", "share", "lower", false},
	{"dessim.events_per_query", "count", "lower", false},
	{"dessim.events_per_s", "1/s", "higher", false},
	{"dessim.core_ns_per_event", "ns", "lower", false},
	{"telemetry.trace_overhead_share", "share", "lower", false},
	{"telemetry.spans_per_query", "count", "lower", false},
	{"runtime.cpu_us_per_op", "us", "lower", false},
	{"runtime.gc_cpu_share", "share", "lower", false},
	{"runtime.gc_cycles_per_kop", "count", "lower", false},
	{"runtime.goroutines", "count", "lower", false},
	{"runtime.calib_ms", "ms", "lower", false},
	{"layers.unattributed_share", "share", "lower", false},
}
