package squid_test

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"squid/internal/chord"
	"squid/internal/keyspace"
	"squid/internal/sfc"
	"squid/internal/sim"
	"squid/internal/squid"
	"squid/internal/transport"
)

// TestStreamMatchesQuery is the streaming analogue of the scheduler
// equivalence test: an unlimited QueryStream must deliver exactly the
// result set the one-shot Query does (which in turn equals brute force),
// across the full query taxonomy — streaming changes delivery, never the
// answer.
func TestStreamMatchesQuery(t *testing.T) {
	nw := buildNetwork(t, 40, 3000, squid.Options{})
	queries := []string{
		"(computer, network)",
		"(computer, *)",
		"(comp*, *)",
		"(comp*, net*)",
		"(c-d, *)",
		"(*, *)",
		"(zzz, *)", // no matches
	}
	for qi, qs := range queries {
		q := keyspace.MustParse(qs)
		want := sortedData(nw.BruteForceMatches(q))
		res, _ := nw.Query(qi%len(nw.Peers), q)
		if res.Err != nil {
			t.Fatalf("%s: legacy query: %v", qs, res.Err)
		}
		sr, _ := nw.QueryStream(qi%len(nw.Peers), q)
		if sr.Err != nil {
			t.Fatalf("%s: stream: %v", qs, sr.Err)
		}
		if got := sortedData(sr.Matches); !equalSets(got, want) {
			t.Errorf("%s: stream delivered %d matches, brute force %d", qs, len(got), len(want))
		}
		if got, legacy := sortedData(sr.Matches), sortedData(res.Matches); !equalSets(got, legacy) {
			t.Errorf("%s: stream and legacy query disagree: %d vs %d", qs, len(got), len(legacy))
		}
		for bi, b := range sr.Batches {
			if len(b) == 0 {
				t.Errorf("%s: empty batch %d delivered", qs, bi)
			}
		}
		if !sr.Cursor.Exhausted() {
			t.Errorf("%s: fully delivered stream's cursor not exhausted", qs)
		}
	}
}

// TestStreamExactlyOnce follows every match of a streamed broad query up
// the refinement tree, with recovery deadlines armed (so children ack).
// Each node must send upward, in PartialResultMsg and SubResultMsg, exactly
// the matches it found locally plus those its children sent it — the root
// delivering instead of sending — and the root must deliver exactly the
// brute-force set. An inner node that relayed an increment and then sent
// it again in its terminal result breaks the first equation.
func TestStreamExactlyOnce(t *testing.T) {
	nw := buildNetwork(t, 40, 3000, squid.Options{SubtreeTimeout: 30 * time.Second})
	q := keyspace.MustParse("(*, *)")

	var mu sync.Mutex
	in := map[transport.Addr]int{}
	out := map[transport.Addr]int{}
	nw.Inproc.SetObserver(func(from, to transport.Addr, msg any) {
		nw.Metrics.Observe(from, to, msg)
		app, ok := msg.(chord.AppMsg)
		if !ok {
			return
		}
		var n int
		switch m := app.Payload.(type) {
		case squid.PartialResultMsg:
			n = len(m.Matches)
		case squid.SubResultMsg:
			n = len(m.Matches)
		default:
			return
		}
		mu.Lock()
		out[from] += n
		in[to] += n
		mu.Unlock()
	})
	sr, qm := nw.QueryStream(0, q)
	if sr.Err != nil {
		t.Fatal(sr.Err)
	}
	if want := len(nw.BruteForceMatches(q)); len(sr.Matches) != want {
		t.Fatalf("delivered %d matches, brute force %d", len(sr.Matches), want)
	}
	if qm.PartialMessages == 0 {
		t.Fatal("no PartialResultMsg sent: the query never streamed")
	}

	mu.Lock()
	defer mu.Unlock()
	root := nw.Peers[0].Addr()
	relays := 0
	for _, p := range nw.Peers {
		a := p.Addr()
		local := 0
		p.Engine.LocalStore().ScanSpan(sfc.Interval{Lo: 0, Hi: 1<<nw.Space.IndexBits() - 1}, func(_ uint64, e squid.Element) {
			if nw.Space.Matches(q, e.Values) {
				local++
			}
		})
		up := out[a]
		if a == root {
			up += len(sr.Matches)
		}
		if up != local+in[a] {
			t.Errorf("node %s: sent up %d matches, found %d and received %d", a, up, local, in[a])
		}
		if a != root && in[a] > 0 && out[a] > 0 {
			relays++
		}
	}
	if relays == 0 {
		t.Error("no inner node relayed its children's matches")
	}
}

// TestStreamLimitTopK pins the tentpole's economy claim: a Limit(k) stream
// delivers exactly k matches, terminates early with a clean (nil) error,
// sends QueryCancelMsg teardown to its outstanding subtrees, and costs
// fewer cluster-query transmissions than draining the same query fully.
func TestStreamLimitTopK(t *testing.T) {
	nw := buildNetwork(t, 40, 3000, squid.Options{})
	q := keyspace.MustParse("(comp*, *)")
	total := len(nw.BruteForceMatches(q))
	if total < 20 {
		t.Fatalf("test query too narrow: %d matches", total)
	}
	full, qmFull := nw.QueryStream(0, q)
	if full.Err != nil {
		t.Fatal(full.Err)
	}

	const k = 5
	lim, qmLim := nw.QueryStream(1, q, squid.Limit(k))
	if lim.Err != nil {
		t.Fatalf("limited stream: %v", lim.Err)
	}
	if len(lim.Matches) != k {
		t.Fatalf("Limit(%d) delivered %d matches", k, len(lim.Matches))
	}
	if lim.Cursor.Exhausted() {
		t.Error("early-terminated stream reports an exhausted cursor")
	}
	if qmLim.ClusterMessages >= qmFull.ClusterMessages {
		t.Errorf("Limit(%d) used %d cluster messages, full drain %d — no early-termination savings",
			k, qmLim.ClusterMessages, qmFull.ClusterMessages)
	}
	t.Logf("cluster messages: full=%d limit(%d)=%d cancels=%d",
		qmFull.ClusterMessages, k, qmLim.ClusterMessages, qmLim.CancelMessages)
	// Every delivered match is a real one.
	want := map[string]bool{}
	for _, e := range nw.BruteForceMatches(q) {
		want[e.Data] = true
	}
	for _, e := range lim.Matches {
		if !want[e.Data] {
			t.Errorf("limited stream delivered non-matching element %q", e.Data)
		}
	}
}

// TestStreamCursorPagination browses a query in Limit-sized pages, feeding
// each page's cursor into the next, and checks the union of pages is the
// exact full result set (pages may overlap at resume boundaries —
// at-least-once — so the union is deduplicated first).
func TestStreamCursorPagination(t *testing.T) {
	nw := buildNetwork(t, 30, 2000, squid.Options{})
	q := keyspace.MustParse("(comp*, *)")
	want := sortedData(nw.BruteForceMatches(q))
	if len(want) < 15 {
		t.Fatalf("test query too narrow: %d matches", len(want))
	}

	const page = 7
	seen := map[string]bool{}
	var cur squid.Cursor
	for pageNo := 0; ; pageNo++ {
		if pageNo > len(want)+5 {
			t.Fatal("pagination did not converge")
		}
		opts := []squid.QueryOption{squid.Limit(page)}
		if pageNo > 0 {
			opts = append(opts, squid.WithCursor(cur))
		}
		sr, _ := nw.QueryStream(pageNo%len(nw.Peers), q, opts...)
		if sr.Err != nil {
			t.Fatalf("page %d: %v", pageNo, sr.Err)
		}
		for _, e := range sr.Matches {
			seen[e.Data] = true
		}
		cur = sr.Cursor
		if cur.Exhausted() {
			break
		}
		// The cursor must round-trip its query so a caller can resume
		// without holding the original alongside it.
		cq, err := squid.CursorQuery(cur)
		if err != nil {
			t.Fatalf("page %d: cursor query: %v", pageNo, err)
		}
		if cq.String() != q.String() {
			t.Fatalf("page %d: cursor recovered query %q, want %q", pageNo, cq.String(), q.String())
		}
	}
	got := make([]string, 0, len(seen))
	for d := range seen {
		got = append(got, d)
	}
	sort.Strings(got)
	if !equalSets(got, want) {
		t.Errorf("pagination union has %d distinct matches, brute force %d", len(got), len(want))
	}
}

// TestStreamCancelMidStream cancels a streaming query from inside its own
// delivery callback — the deterministic cancellation point: the first batch
// has arrived while sibling subtrees are still refining. The stream must
// finish exactly once with context.Canceled, deliver nothing after Done,
// and tear its outstanding subtrees down with QueryCancelMsg.
func TestStreamCancelMidStream(t *testing.T) {
	nw := buildNetwork(t, 40, 3000, squid.Options{})
	q := keyspace.MustParse("(*, *)")
	p := nw.Peers[0]

	var (
		events       []squid.StreamEvent
		afterDone    int
		doneCount    int
		batchesSeen  int
		qidCh        = make(chan squid.QueryID, 1)
		finishedCh   = make(chan struct{}, 1)
		startErrCh   = make(chan error, 1)
		cancelResult bool
	)
	sim.MustInvoke(p, func() {
		var qid squid.QueryID
		var err error
		qid, err = p.Engine.QueryStreamFunc(context.Background(), q, func(ev squid.StreamEvent) {
			events = append(events, ev)
			if ev.Done {
				doneCount++
				finishedCh <- struct{}{}
				return
			}
			if doneCount > 0 {
				afterDone++
				return
			}
			batchesSeen++
			if batchesSeen == 1 {
				// First partial page in hand: the consumer walks away.
				// Reentrant cancellation from the delivery callback is the
				// documented upcall context for engine entry points.
				cancelResult = p.Engine.CancelQuery(qid)
			}
		})
		qidCh <- qid
		startErrCh <- err
	})
	qid := <-qidCh
	if err := <-startErrCh; err != nil {
		t.Fatal(err)
	}
	select {
	case <-finishedCh:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled stream never finished")
	}
	nw.Quiesce()

	if !cancelResult {
		t.Error("CancelQuery did not find the in-flight query")
	}
	if doneCount != 1 {
		t.Fatalf("stream finished %d times", doneCount)
	}
	if afterDone != 0 {
		t.Fatalf("%d batches delivered after Done", afterDone)
	}
	last := events[len(events)-1]
	if !last.Done {
		t.Fatal("Done is not the final event")
	}
	if last.Err != context.Canceled {
		t.Fatalf("cancelled stream error = %v, want context.Canceled", last.Err)
	}
	if last.Cursor.Exhausted() {
		t.Error("cancelled stream reports an exhausted cursor")
	}
	qm := nw.Metrics.ForQuery(qid)
	if qm.CancelMessages == 0 {
		t.Error("cancellation sent no QueryCancelMsg teardown")
	}
	// The network is quiet and the root is gone: a second cancel is a no-op.
	if nw.CancelQuery(0, qid) {
		t.Error("finished query still cancellable")
	}
}

// TestStreamContextCancel drives cancellation through the context instead
// of CancelQuery, under injected latency so the query is still in flight
// when the cancel lands. The terminal event must carry the context's error
// and arrive exactly once.
func TestStreamContextCancel(t *testing.T) {
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := sim.Build(sim.Config{
		Nodes: 30, Space: space, Seed: 42,
		Faults: &transport.FaultConfig{
			Seed:     43,
			MinDelay: 2 * time.Millisecond,
			MaxDelay: 6 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	elems := make([]squid.Element, 0, 2000)
	for i := 0; i < 2000; i++ {
		elems = append(elems, squid.Element{
			Values: []string{testVocab[i%len(testVocab)], testVocab[(i/3)%len(testVocab)]},
			Data:   "doc" + strconv.Itoa(i),
		})
	}
	if err := nw.Preload(elems); err != nil {
		t.Fatal(err)
	}

	p := nw.Peers[0]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	firstBatch := make(chan struct{}, 1)
	done := make(chan error, 1)
	var batches int
	sim.MustInvoke(p, func() {
		_, err := p.Engine.QueryStreamFunc(ctx, keyspace.MustParse("(*, *)"), func(ev squid.StreamEvent) {
			if ev.Done {
				done <- ev.Err
				return
			}
			batches++
			if batches == 1 {
				firstBatch <- struct{}{}
			}
		})
		if err != nil {
			t.Error(err)
			done <- err
		}
	})
	select {
	case <-firstBatch:
		cancel()
	case <-time.After(10 * time.Second):
		t.Fatal("no batch arrived")
	}
	select {
	case err := <-done:
		// The query may legitimately complete before the asynchronous
		// context watcher lands; only a cancellation that did land must be
		// reported as context.Canceled.
		if err != nil && err != context.Canceled {
			t.Fatalf("stream error = %v, want nil or context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream never finished after ctx cancel")
	}
	nw.Quiesce()
}

// TestStreamResultStreamPull exercises the pull-side API: QueryStream's
// ResultStream consumed with Next/Collect from an ordinary goroutine while
// batches are produced on the node's delivery goroutine.
func TestStreamResultStreamPull(t *testing.T) {
	nw := buildNetwork(t, 25, 1500, squid.Options{})
	q := keyspace.MustParse("(comp*, *)")
	want := sortedData(nw.BruteForceMatches(q))
	p := nw.Peers[2]
	type started struct {
		s   *squid.ResultStream
		err error
	}
	ch := make(chan started, 1)
	sim.MustInvoke(p, func() {
		s, err := p.Engine.QueryStream(context.Background(), q)
		ch <- started{s, err}
	})
	got := <-ch
	if got.err != nil {
		t.Fatal(got.err)
	}
	s := got.s
	all, err := s.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !equalSets(sortedData(all), want) {
		t.Errorf("pull stream collected %d matches, brute force %d", len(all), len(want))
	}
	if !s.Cursor().Exhausted() {
		t.Error("drained stream's cursor not exhausted")
	}
	nw.Quiesce()
}

// resultCacheCounts sums the squid_result_cache_total family across peers.
func resultCacheCounts(nw *sim.Network) (hits, misses uint64) {
	vec := nw.Telemetry.CounterVec("squid_result_cache_total",
		"popular-cluster result-cache lookups on incoming cluster batches", "node", "outcome")
	for _, p := range nw.Peers {
		node := strconv.FormatUint(uint64(p.ID()), 16)
		hits += vec.With(node, "hit").Value()
		misses += vec.With(node, "miss").Value()
	}
	return hits, misses
}

// TestStreamResultCache pins the popular-cluster cache end to end: a
// repeated query hits the cache (and still answers exactly), and a write
// into a cached cluster invalidates it — the next repeat sees the new
// element instead of a stale page.
func TestStreamResultCache(t *testing.T) {
	nw := buildNetwork(t, 30, 2000, squid.Options{ResultCacheSize: 64})
	q := keyspace.MustParse("(comp*, *)")
	want := sortedData(nw.BruteForceMatches(q))

	first, _ := nw.QueryStream(0, q)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if !equalSets(sortedData(first.Matches), want) {
		t.Fatalf("cold query wrong: %d vs %d", len(first.Matches), len(want))
	}
	hits0, misses0 := resultCacheCounts(nw)
	if misses0 == 0 {
		t.Fatal("cold query recorded no cache misses — cache not consulted")
	}

	second, _ := nw.QueryStream(1, q)
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if !equalSets(sortedData(second.Matches), want) {
		t.Fatalf("repeat query wrong: %d vs %d", len(second.Matches), len(want))
	}
	hits1, _ := resultCacheCounts(nw)
	if hits1 <= hits0 {
		t.Errorf("repeat of an identical query recorded no cache hits (%d -> %d)", hits0, hits1)
	}

	// A publish into the cached clusters must invalidate them: the next
	// repeat returns the new element, not the cached page.
	if err := nw.Publish(3, squid.Element{Values: []string{"computer", "computer"}, Data: "fresh"}); err != nil {
		t.Fatal(err)
	}
	nw.Quiesce()
	want2 := sortedData(nw.BruteForceMatches(q))
	if len(want2) != len(want)+1 {
		t.Fatalf("publish did not land: %d vs %d", len(want2), len(want))
	}
	third, _ := nw.QueryStream(2, q)
	if third.Err != nil {
		t.Fatal(third.Err)
	}
	if !equalSets(sortedData(third.Matches), want2) {
		t.Errorf("post-publish query stale: %d matches, want %d (cache not invalidated)",
			len(third.Matches), len(want2))
	}

	// Legacy (non-streaming) repeats ride the same cache.
	res, _ := nw.Query(4, q)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !equalSets(sortedData(res.Matches), want2) {
		t.Errorf("legacy query through cache wrong: %d vs %d", len(res.Matches), len(want2))
	}
}

// TestStreamUnderChaos streams under message drops with the full recovery
// stack on: every stream must terminate (no hang), report either a clean
// or an explicitly partial result, and never deliver after Done. Run with
// -race this doubles as the streaming data-race check.
func TestStreamUnderChaos(t *testing.T) {
	nw, space := chaosNetwork(t, 30, 99)
	_ = space
	rngElems := make([]squid.Element, 0, 800)
	for i := 0; i < 800; i++ {
		rngElems = append(rngElems, squid.Element{
			Values: []string{testVocab[i%len(testVocab)], testVocab[(i/2)%len(testVocab)]},
			Data:   "doc" + strconv.Itoa(i),
		})
	}
	if err := nw.Preload(rngElems); err != nil {
		t.Fatal(err)
	}
	nw.PushReplicasAll()
	nw.Faulty.SetDropRate(0.10)

	queries := []string{"(comp*, *)", "(*, net*)", "(data*, *)", "(*, *)"}
	for i, qs := range queries {
		q := keyspace.MustParse(qs)
		opts := []squid.QueryOption{}
		if i%2 == 1 {
			opts = append(opts, squid.Limit(10))
		}
		sr, _ := nw.QueryStream(i%len(nw.Peers), q, opts...)
		if sr.Err != nil && sr.Err != squid.ErrPartialResult {
			t.Fatalf("%s: %v", qs, sr.Err)
		}
		if i%2 == 1 && len(sr.Matches) > 10 {
			t.Errorf("%s: Limit(10) delivered %d", qs, len(sr.Matches))
		}
	}
	nw.Faulty.SetDropRate(0)
	nw.Quiesce()
}
