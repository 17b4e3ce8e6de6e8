package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"squid/internal/chord"
	"squid/internal/dessim"
	"squid/internal/sfc"
	"squid/internal/sim"
	"squid/internal/squid"
	"squid/internal/transport"
	"squid/internal/wire"
)

// The traced pass. Per-layer numbers come from here only: counters the
// program already exports, read before and after a measured phase with the
// program's tracing on, and direct calls into one layer at a time with the
// workload's own inputs.

// absent marks a per-layer metric whose layer the workload bypasses. The
// text report prints "absent"; the result line carries 0, because the
// driver's contract wants every per-layer metric on every workload.
const absent = -1

// layerShare is one row of the layer-separation table.
type layerShare struct {
	layer string
	p50   time.Duration // median self time per sampled query
	share float64       // of the denominator below
}

// tracedResult is everything the traced pass reports.
type tracedResult struct {
	metrics   map[string]float64
	attempted int
	failed    int
	firstErr  error
	shares    []layerShare
	denom     time.Duration // what the shares are shares of
	denomName string
	traceFile string
	samples   int
}

// tracedPass measures the workload untraced for a third of d, traced for a
// third, then replays sampled queries layer by layer.
func tracedPass(in *inputs, d time.Duration) (*tracedResult, error) {
	sp := in.spec
	res := &tracedResult{metrics: make(map[string]float64)}
	for _, def := range catalogue {
		if !def.endToEnd {
			res.metrics[def.name] = absent
		}
	}
	set := func(name string, v float64) { res.metrics[name] = v }

	// Untraced reference, for the tracing overhead.
	r0, drv0, _, err := setup(in, false)
	if err != nil {
		return nil, err
	}
	ref := measure(r0, drv0, d/3, false)
	r0.close()
	for name, v := range ref.timing() { // the timing cells come from the untraced phase
		set(name, v)
	}

	r, drv, _, err := setup(in, true)
	if err != nil {
		return nil, err
	}
	defer r.close()
	rec := newRecorder()
	var qids []squid.QueryID // of every traced client query; appended under rec.mu
	note := func(a answer) {
		rec.mu.Lock()
		qids = append(qids, a.qid)
		rec.mu.Unlock()
	}
	live := func(_, qi int, start time.Time, a answer) {
		rec.clientOp(qi, rec.since(start), rec.since(start)+int64(a.total), int64(a.first))
		note(a)
	}
	switch dv := drv.(type) {
	case *mixDriver:
		dv.hook = live
	case *browseDriver:
		dv.hook = live
	case *desDriver:
		dv.keepMetrics = true
		dv.hook = func(qi int, due, end time.Duration, a answer) {
			rec.clientOp(qi, int64(due), int64(end), int64(a.first))
			note(a)
		}
	}
	before := scrapeRegistry(r.reg)
	m := measure(r, drv, d/3, true)
	after := scrapeRegistry(r.reg)
	res.attempted, res.failed, res.firstErr = m.ops, m.failed, m.firstErr

	queries := float64(m.queries)
	ops := float64(m.ops)
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	grew := func(name string, want ...string) float64 { return delta(before, after, name, want...) }

	// Counters the program exports.
	set("sfc.clusters_per_query", ratio(grew("squid_engine_clusters_processed_total"), queries))
	set("engine.subtrees_per_query", ratio(grew("squid_engine_subtrees_dispatched_total"), queries))
	set("engine.batch_fill", ratio(grew("squid_dispatch_batched_queries_total"), grew("squid_dispatch_batches_total")))
	set("engine.redispatch_share", ratio(grew("squid_engine_recovery_total", `event="redispatch"`), grew("squid_engine_subtrees_dispatched_total")))
	hits, misses := grew("squid_engine_probe_cache_total", `outcome="hit"`), grew("squid_engine_probe_cache_total", `outcome="miss"`)
	set("engine.probe_cache_hit_share", ratio(hits, hits+misses))
	set("stream.batches_per_query", ratio(grew("squid_stream_batches_total"), queries))
	set("stream.cancel_msgs_per_query", ratio(grew("squid_stream_cancels_total", `dir="sent"`), queries))
	p50 := percentile(m.lat, 0.5)
	set("stream.first_match_share", ratio(float64(percentile(m.first, 0.5)), float64(p50)))
	if sp.resultCache > 0 {
		hit, miss, bypass := grew("squid_result_cache_total", `outcome="hit"`), grew("squid_result_cache_total", `outcome="miss"`), grew("squid_result_cache_total", `outcome="bypass"`)
		set("cache.hit_share", ratio(hit, hit+miss))
		set("cache.bypass_share", ratio(bypass, hit+miss+bypass))
	}
	lookups := grew("squid_chord_lookup_hops_count")
	set("chord.lookup_hops_mean", ratio(grew("squid_chord_lookup_hops_sum"), lookups))
	set("chord.route_forwards_per_query", ratio(grew("squid_chord_route_forwards_total"), queries))
	set("chord.rpc_retry_share", ratio(grew("squid_chord_rpc_retries_total"), lookups))
	if sp.backend != backendDES { // DES engines run serially: there is no scheduler
		set("sched.queue_wait_p50_us", histQuantile(before, after, "squid_sched_queue_wait_ns", 0.5)/1e3)
		set("sched.queue_wait_p99_us", histQuantile(before, after, "squid_sched_queue_wait_ns", 0.99)/1e3)
		set("sched.shed_share", ratio(grew("squid_sched_shed_total"), grew("squid_sched_queue_wait_ns_count")+grew("squid_sched_shed_total")))
	}
	switch sp.backend {
	case backendTCP:
		frames, flushes := grew("squid_transport_tcp_frames_total"), grew("squid_transport_tcp_flushes_total")
		set("transport.tcp_frames_per_flush", ratio(frames, flushes))
		set("transport.tcp_bytes_per_frame", ratio(grew("squid_transport_tcp_bytes_written_total"), frames))
		set("transport.send_error_share", ratio(grew("squid_transport_tcp_send_errors_total"), grew("squid_transport_tcp_sent_total")+grew("squid_transport_tcp_send_errors_total")))
	case backendInproc:
		sent, lost := grew("squid_transport_inproc_sent_total"), grew("squid_transport_inproc_unreachable_total")
		set("transport.send_error_share", ratio(lost, sent+lost))
	case backendDES:
		set("transport.send_error_share", 0) // lossless links, and Net.Stats counts no drop
		set("dessim.events_per_query", ratio(float64(m.events), float64(m.trafficQ)))
		set("dessim.events_per_s", ratio(float64(m.eventsAll), m.inRounds.Seconds()))
	}

	// The paper's per-query node counts, from the engines' metrics sink.
	var processing, data, spans, traced float64
	for _, qid := range qids {
		qm := r.sink.ForQuery(qid)
		processing += float64(len(qm.ProcessingNodes))
		data += float64(len(qm.DataNodes))
		if t, ok := r.traces.Get(qid); ok {
			spans += float64(len(t.Spans))
			traced++
		}
	}
	set("engine.processing_nodes_per_query", ratio(processing, float64(len(qids))))
	set("engine.data_nodes_per_query", ratio(data, float64(len(qids))))
	set("telemetry.spans_per_query", ratio(spans, traced))
	set("telemetry.trace_overhead_share", 1-ratio(median(m.roundOps), median(ref.roundOps)))

	// Process-level diagnostics for the timing cells.
	set("runtime.cpu_us_per_op", ratio(us(m.rusageCPU), ops))
	set("runtime.gc_cpu_share", ratio(m.gcCPU, m.totalCPU))
	set("runtime.gc_cycles_per_kop", ratio(float64(m.gcCycles)*1000, ops))
	set("runtime.goroutines", float64(m.goroutines))
	set("runtime.calib_ms", median(m.calib))

	// Direct calls, one layer at a time.
	pr, err := newProbes(in, r)
	if err != nil {
		return nil, err
	}
	defer pr.close()
	msgsPerQuery := ratio(float64(m.msgs), float64(m.trafficQ))
	sample := rec.sampleQueries(sampledQueries)
	res.samples = len(sample)
	agg, err := pr.replay(rec, sample, int(ratio(lookups, queries)+0.5), int(msgsPerQuery+0.5))
	if err != nil {
		return nil, err
	}
	n := float64(len(sample))
	set("keyspace.region_us", ratio(us(agg.region), n))
	set("keyspace.matches_ns", ratio(float64(agg.matchTime), float64(agg.matchCalls)))
	set("sfc.refine_ns_per_cluster", ratio(float64(agg.refine), float64(agg.clusters)))
	set("sfc.refine_us_per_query", ratio(us(agg.refine), n))
	set("store.scan_us_per_query", ratio(us(agg.scan), n))
	set("store.scanned_per_match", ratio(float64(agg.scanned), float64(agg.matched)))
	set("engine.local_query_us", ratio(us(agg.local), n))
	add, remove := pr.storeMutations()
	set("store.add_us", add)
	set("store.remove_us", remove)
	set("chord.find_successor_us", pr.findSuccessor())
	if len(m.pubLat) > 0 {
		set("engine.publish_p50_ms", ms(percentile(m.pubLat, 0.5)))
	} else {
		set("engine.publish_p50_ms", pr.publishProbe())
	}
	if enc, dec, size, allocs, ok := pr.codec(); ok {
		set("wire.encode_ns_per_msg", enc)
		set("wire.decode_ns_per_msg", dec)
		set("wire.bytes_per_msg", size)
		set("wire.encode_allocs_per_msg", allocs)
	}
	switch sp.backend {
	case backendTCP:
		set("transport.tcp_send_p50_us", us(percentile(pr.echo.sends, 0.5)))
		set("transport.tcp_echo_rtt_us", us(percentile(pr.echo.rtts, 0.5)))
	case backendInproc:
		set("transport.inproc_send_ns", pr.inprocSend())
	case backendDES:
		set("dessim.core_ns_per_event", coreProbe())
	}

	// Layer shares of the query's time. On the live rings the denominator
	// is the traced pass's median query latency. On DES that latency is
	// virtual and no compute appears in it, so the shares are of the wall
	// time the event loop spends per query.
	res.denom, res.denomName = p50, "query_p50_ms (traced pass)"
	self := rec.selfTimes()
	layers := map[string]time.Duration{}
	for name, ds := range self {
		if !strings.HasPrefix(name, "client.") {
			layers[name] = percentile(ds, 0.5)
		}
	}
	if sp.backend != backendTCP {
		// The harness's own observer encodes every message to weigh it.
		layers["harness.meter"] = time.Duration(msgsPerQuery * res.metrics["wire.encode_ns_per_msg"])
	}
	if sp.backend == backendDES {
		res.denom = time.Duration(float64(time.Second) / median(m.roundOps))
		res.denomName = "wall time per query in Run (traced pass)"
		delete(layers, "chord.lookup") // virtual time; it is no part of the wall denominator
		layers["dessim.core"] = time.Duration(res.metrics["dessim.events_per_query"] * res.metrics["dessim.core_ns_per_event"])
		// The event loop is one thread that is never idle and runs nothing
		// but message handlers, so what the rows above leave over is the
		// engine's and chord's per-message handler path, by elimination.
		rest := res.denom
		for _, d := range layers {
			rest -= d
		}
		if rest > 0 {
			layers["engine.handlers"] = rest
		}
	}
	total := 0.0
	for name, d := range layers {
		share := ratio(float64(d), float64(res.denom))
		res.shares = append(res.shares, layerShare{name, d, share})
		total += share
	}
	sort.Slice(res.shares, func(i, j int) bool { return res.shares[i].layer < res.shares[j].layer })
	set("layers.unattributed_share", 1-total)

	if res.traceFile, err = rec.write(sp.name, in.seed); err != nil {
		return nil, err
	}
	return res, nil
}

// probes are the standalone pieces the layer replays call into.
type probes struct {
	in    *inputs
	ring  *ring        // the traced ring, for lookups and the publish probe
	store *squid.Store // the whole corpus in one standalone store
	local *ring        // one member holding the whole corpus: engine + sfc + store, nothing else
	bare  *ring        // one member holding nothing: engine + sfc
	echo  *echoPair    // two bare TCP endpoints (TCP workloads)
	raw   []any        // the tap's sample of the workload's messages
	msgs  [][]byte     // raw[i], encoded
}

func newProbes(in *inputs, r *ring) (*probes, error) {
	pr := &probes{in: in, ring: r}
	pr.store = squid.NewStore(chord.Space{Bits: in.space.IndexBits()})
	items := make([]chord.Item, len(in.corpus))
	for i, e := range in.corpus {
		items[i] = chord.Item{Key: chord.ID(in.index[i]), Value: []squid.Element{e}}
	}
	pr.store.AddBatch(items)

	one := *in
	one.spec.backend, one.spec.nodes, one.spec.uncapped = backendInproc, 1, true
	one.ids = in.ids[:1]
	var err error
	if pr.local, err = buildLive(&one, false); err != nil {
		return nil, fmt.Errorf("one-member ring: %w", err)
	}
	none := one
	none.corpus, none.index = nil, nil
	if pr.bare, err = buildLive(&none, false); err != nil {
		pr.close()
		return nil, fmt.Errorf("empty one-member ring: %w", err)
	}

	var enc wire.Encoder
	r.tap.mu.Lock()
	for _, msg := range r.tap.msgs {
		enc.Reset()
		if wire.EncodeMessage(&enc, msg) { // Invoke closures have no codec and never cross a wire
			pr.msgs = append(pr.msgs, append([]byte(nil), enc.Bytes()...))
			pr.raw = append(pr.raw, msg)
		}
	}
	r.tap.mu.Unlock()

	if in.spec.backend == backendTCP {
		if pr.echo, err = newEchoPair(); err != nil {
			pr.close()
			return nil, err
		}
	}
	return pr, nil
}

func (pr *probes) close() {
	pr.local.close()
	if pr.bare != nil {
		pr.bare.close()
	}
	if pr.echo != nil {
		pr.echo.close()
	}
}

// replayTotals sums what the replays of the sampled queries cost.
type replayTotals struct {
	region, refine, scan, local time.Duration
	matchTime                   time.Duration
	matchCalls, clusters        int
	scanned, matched            int
}

// replay runs the sampled queries through one layer at a time, every query
// through a layer before the next layer starts, so each layer is timed warm.
// Each call is recorded as a span under the query's client.query span.
//
// The spans nest by what a call includes. store.scan is the query on one
// member holding the whole corpus: engine, refinement and store under the
// engine's own scan plan, with no routing, transport or codec. Its child
// engine.local is the same query on one member holding nothing: everything
// but the store. That one's children are the two kernels called directly.
// Self time strips the layers below, so store.scan's is scanning, matching
// and result assembly, and engine.local's is dispatch and stream plumbing.
func (pr *probes) replay(rec *recorder, sample []int, lookupsPerQuery, msgsPerQuery int) (replayTotals, error) {
	var (
		agg       replayTotals
		in        = pr.in
		curve     = in.space.Curve()
		sc        sfc.Scratch
		frontier  []sfc.Refined
		next      []sfc.Refined
		storeSpan = make([]int, len(sample))
		engSpan   = make([]int, len(sample))
		regions   = make([]sfc.Region, len(sample))
		leaves    = make([][]sfc.Refined, len(sample))
	)
	query := func(i int) (int, int) { return sample[i], rec.qi[sample[i]-1] }
	// A browse page is replayed as a first page; every other query in full.
	var opts []squid.QueryOption
	want := func(qi int) int { return in.expect[qi].count }
	if k := in.spec.pageLimit; k > 0 {
		opts = append(opts, squid.Limit(k))
		want = func(qi int) int { return min(k, in.expect[qi].count) }
	}

	for i := range sample {
		id, qi := query(i)
		var a answer
		var d time.Duration
		storeSpan[i], d = rec.timed(id, id, "store.scan", func() { a = stream(pr.local.peers[0], in.pool[qi], nil, opts...) })
		agg.local += d
		if a.err != nil || a.count != want(qi) {
			return agg, fmt.Errorf("one-member replay of %s: %d matches, err %v; oracle wants %d", in.pool[qi], a.count, a.err, want(qi))
		}
	}
	for i := range sample {
		id, qi := query(i)
		var a answer
		engSpan[i], _ = rec.timed(storeSpan[i], id, "engine.local", func() { a = stream(pr.bare.peers[0], in.pool[qi], nil, opts...) })
		if a.err != nil || a.count != 0 {
			return agg, fmt.Errorf("empty-member replay of %s: %d matches, err %v", in.pool[qi], a.count, a.err)
		}
	}
	for i := range sample {
		id, qi := query(i)
		var err error
		_, d := rec.timed(engSpan[i], id, "keyspace.region", func() { regions[i], err = in.space.Region(in.pool[qi]) })
		if err != nil {
			return agg, err
		}
		agg.region += d
	}
	for i := range sample {
		id, _ := query(i)
		clusters := 0
		_, d := rec.timed(engSpan[i], id, "sfc.refine", func() {
			frontier = append(frontier[:0], sfc.Refined{})
			for depth := 0; depth < refineMaxDepth && len(frontier) > 0 && clusters < refineMaxNodes; depth++ {
				next = next[:0]
				for _, cl := range frontier {
					if cl.Complete || cl.Level >= curve.Bits() || clusters >= refineMaxNodes {
						leaves[i] = append(leaves[i], cl)
						continue
					}
					before := len(next)
					next = sfc.RefineStepInto(next, curve, cl.Cluster, regions[i], &sc)
					clusters += len(next) - before
				}
				frontier, next = next, frontier
			}
			leaves[i] = append(leaves[i], frontier...)
		})
		agg.refine += d
		agg.clusters += clusters
	}
	// The store alone: ScanSpan over the refined clusters on a standalone
	// store, and Space.Matches over what it visits.
	for i := range sample {
		_, qi := query(i)
		q := in.pool[qi]
		scanned, matched := 0, 0
		start := time.Now()
		for _, cl := range leaves[i] {
			pr.store.ScanSpan(cl.Span(curve), func(_ uint64, e squid.Element) {
				scanned++
				if in.space.Matches(q, e.Values) {
					matched++
				}
			})
		}
		agg.scan += time.Since(start)
		agg.scanned += scanned
		agg.matched += matched
		if matched != in.expect[qi].count {
			return agg, fmt.Errorf("scan replay of %s: %d matches, oracle has %d", q, matched, in.expect[qi].count)
		}
		start = time.Now()
		for _, pos := range in.expect[qi].matches {
			in.space.Matches(q, in.corpus[pos].Values)
		}
		agg.matchTime += time.Since(start)
		agg.matchCalls += len(in.expect[qi].matches)
	}
	for i := range sample {
		id, _ := query(i)
		if len(leaves[i]) == 0 {
			continue
		}
		key := chord.ID(leaves[i][0].Span(curve).Lo)
		for k := 0; k < lookupsPerQuery; k++ {
			rec.timed(id, id, "chord.lookup", func() { pr.lookup(pr.ring.entry(id+k, 0), key) })
		}
	}
	if in.spec.backend == backendTCP && len(pr.msgs) > 0 {
		for i := range sample {
			id, _ := query(i)
			rec.timed(id, id, "wire.codec", func() { pr.codecRound(id, msgsPerQuery) })
		}
		for i := range sample {
			id, _ := query(i)
			rec.timed(id, id, "transport.echo", func() { pr.echo.roundTrips((msgsPerQuery + 1) / 2) })
		}
	}
	return agg, nil
}

// lookup resolves key from p and returns how long it took: wall time on the
// live rings, virtual time on DES.
func (pr *probes) lookup(p *sim.Peer, key chord.ID) time.Duration {
	if nw := pr.ring.des; nw != nil {
		start := nw.Core.Elapsed()
		var end time.Duration
		if err := p.Node.Invoke(func() {
			p.Node.FindSuccessor(key, 0, func(chord.FoundMsg, error) { end = nw.Core.Elapsed() })
		}); err != nil {
			return 0
		}
		nw.Run()
		return end - start
	}
	start := time.Now()
	done := make(chan struct{})
	if err := p.Node.Invoke(func() {
		p.Node.FindSuccessor(key, 0, func(chord.FoundMsg, error) { close(done) })
	}); err != nil {
		return 0
	}
	<-done
	return time.Since(start)
}

// findSuccessor is layerProbeOps direct lookups of corpus keys from
// rotating members; microseconds per lookup (virtual on DES).
func (pr *probes) findSuccessor() float64 {
	var total time.Duration
	for i := 0; i < layerProbeOps; i++ {
		key := chord.ID(pr.in.index[(i*7919)%len(pr.in.index)])
		total += pr.lookup(pr.ring.entry(i, 0), key)
	}
	return us(total) / layerProbeOps
}

// publishProbe publishes and withdraws a few probe elements on a workload
// that has no writes of its own. On the live rings it is the client's wait
// for the Publish call; on DES it is the virtual time until the network is
// quiet again, which is when the owner has stored the element.
func (pr *probes) publishProbe() float64 {
	const n = 64
	in := pr.in
	words := in.vocab.Sampler(in.seed + 30)
	lat := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		values := make([]string, in.spec.dims)
		for d := range values {
			values[d] = words.Word()
		}
		e := squid.Element{Values: values, Data: fmt.Sprintf("probe-%03d", i)}
		p := pr.ring.entry(i, 0)
		if nw := pr.ring.des; nw != nil {
			start := nw.Core.Elapsed()
			if err := p.Node.Invoke(func() { _ = p.Engine.Publish(e) }); err != nil { // values come from the vocabulary: always indexable
				continue
			}
			nw.Run()
			lat = append(lat, nw.Core.Elapsed()-start)
			if err := p.Node.Invoke(func() { _ = p.Engine.Unpublish(e) }); err == nil {
				nw.Run()
			}
			continue
		}
		start := time.Now()
		if err := call(p, func() { _ = p.Engine.Publish(e) }); err != nil {
			continue
		}
		lat = append(lat, time.Since(start))
		_ = call(p, func() { _ = p.Engine.Unpublish(e) }) // best-effort clean-up of a probe element
	}
	return ms(percentile(lat, 0.5))
}

// storeMutations times Store.Add and Store.Remove on the standalone store:
// layerProbeOps new elements in, then out again. Microseconds per call.
func (pr *probes) storeMutations() (add, remove float64) {
	in := pr.in
	words := in.vocab.Sampler(in.seed + 31)
	elems := make([]squid.Element, layerProbeOps)
	keys := make([]uint64, layerProbeOps)
	for i := range elems {
		values := make([]string, in.spec.dims)
		for d := range values {
			values[d] = words.Word()
		}
		elems[i] = squid.Element{Values: values, Data: fmt.Sprintf("probe-%04d", i)}
		keys[i], _ = in.space.Index(values) // vocabulary words always index
	}
	start := time.Now()
	for i, e := range elems {
		pr.store.Add(keys[i], e)
	}
	mid := time.Now()
	for i, e := range elems {
		pr.store.Remove(keys[i], e)
	}
	end := time.Now()
	return us(mid.Sub(start)) / layerProbeOps, us(end.Sub(mid)) / layerProbeOps
}

// codec times the binary codec over the tap's sample of the workload's own
// messages.
func (pr *probes) codec() (encNS, decNS, size, allocs float64, ok bool) {
	if len(pr.raw) == 0 {
		return 0, 0, 0, 0, false
	}
	const passes = 20
	var enc wire.Encoder
	var ms0, ms1 runtime.MemStats
	bytes := 0
	for _, b := range pr.msgs {
		bytes += len(b)
	}
	for _, msg := range pr.raw { // grow the encoder's buffer before counting allocations
		enc.Reset()
		wire.EncodeMessage(&enc, msg)
	}
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for p := 0; p < passes; p++ {
		for _, msg := range pr.raw {
			enc.Reset()
			wire.EncodeMessage(&enc, msg)
		}
	}
	encTime := time.Since(start)
	runtime.ReadMemStats(&ms1)
	start = time.Now()
	for p := 0; p < passes; p++ {
		for _, b := range pr.msgs {
			if _, err := wire.DecodeMessage(b); err != nil {
				return 0, 0, 0, 0, false
			}
		}
	}
	decTime := time.Since(start)
	n := float64(passes * len(pr.raw))
	return float64(encTime) / n, float64(decTime) / n, float64(bytes) / float64(len(pr.msgs)),
		float64(ms1.Mallocs-ms0.Mallocs) / n, true
}

// codecRound encodes and decodes n sampled messages, starting at a
// query-dependent offset.
func (pr *probes) codecRound(offset, n int) {
	var enc wire.Encoder
	for i := 0; i < n; i++ {
		k := (offset + i) % len(pr.raw)
		enc.Reset()
		wire.EncodeMessage(&enc, pr.raw[k])
		_, _ = wire.DecodeMessage(pr.msgs[k]) // the harness's own encoding of a sampled message: it decodes
	}
}

// inprocSend times Send between two bare in-process endpoints whose
// handlers do nothing; nanoseconds per message.
func (pr *probes) inprocSend() float64 {
	nw := transport.NewInproc()
	nop := transport.HandlerFunc(func(transport.Addr, any) {})
	a, err := nw.Listen("a", nop)
	if err != nil {
		return 0
	}
	if _, err := nw.Listen("b", nop); err != nil {
		return 0
	}
	msg := echoMessage()
	const n = 50 * layerProbeOps
	start := time.Now()
	for i := 0; i < n; i++ {
		_ = a.Send("b", msg) // b is listening; a failed send would only shorten the loop
	}
	d := time.Since(start)
	nw.Quiesce()
	nw.Kill("a")
	nw.Kill("b")
	return float64(d) / n
}

// coreProbe times the bare event core: one After and one Step per event.
func coreProbe() float64 {
	c := dessim.NewCore()
	const n = 200 * layerProbeOps
	fn := func() {}
	for i := 0; i < 1024; i++ { // a standing heap, so sift costs are real
		c.After(time.Duration(i+1)*time.Hour, fn)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		c.After(time.Duration(i%97)*time.Millisecond, fn)
		c.Step()
	}
	return float64(time.Since(start)) / n
}

// echoMessage is a protocol message that weighs 64 bytes on the wire: the
// smallest-packet cost.
func echoMessage() any {
	elem := squid.Element{Values: []string{"echo", "probe"}}
	var enc wire.Encoder
	for pad := 0; pad < 64; pad++ {
		elem.Data = strings.Repeat("x", pad)
		enc.Reset()
		if wire.EncodeMessage(&enc, chord.AppMsg{Payload: squid.PublishMsg{Elem: elem}}) && enc.Len()+frameHeader >= 64 {
			break
		}
	}
	return chord.AppMsg{Payload: squid.PublishMsg{Elem: elem}}
}

// echoPair is two bare TCP endpoints: b returns whatever a sends.
type echoPair struct {
	a, b  *transport.TCPEndpoint
	back  chan struct{}
	msg   any
	sends []time.Duration // a's Send calls
	rtts  []time.Duration // Send to echo received
}

func newEchoPair() (*echoPair, error) {
	p := &echoPair{back: make(chan struct{}, 1), msg: echoMessage()}
	var err error
	if p.a, err = transport.ListenTCP("127.0.0.1:0", transport.HandlerFunc(func(transport.Addr, any) { p.back <- struct{}{} })); err != nil {
		return nil, err
	}
	if p.b, err = transport.ListenTCP("127.0.0.1:0", transport.HandlerFunc(func(from transport.Addr, msg any) {
		_ = p.b.Send(from, msg) // a lost echo shows as a stalled probe, which the run's watchdog ends
	})); err != nil {
		_ = p.a.Close() // already failing; the listen error is the one to report
		return nil, err
	}
	p.roundTrips(layerProbeOps) // dial, negotiate, and fill sends/rtts
	return p, nil
}

func (p *echoPair) roundTrips(n int) {
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := p.a.Send(p.b.Addr(), p.msg); err != nil {
			return
		}
		sent := time.Now()
		<-p.back
		if len(p.rtts) < layerProbeOps {
			p.sends = append(p.sends, sent.Sub(start))
			p.rtts = append(p.rtts, time.Since(start))
		}
	}
}

func (p *echoPair) close() {
	_ = p.a.Close() // probe endpoints, shutting down: nothing to do with a close error
	_ = p.b.Close() // as above
}
