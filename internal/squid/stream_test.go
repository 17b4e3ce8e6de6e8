package squid_test

import (
	"context"
	"fmt"
	"sort"
	"strconv"
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
// the refinement tree, with recovery deadlines armed on every child.
// Each node must send upward, in its one SubResultMsg with the reports
// linked behind it, exactly the matches it found locally plus those its
// children sent it — the root delivering instead of sending — and the root
// must deliver exactly the brute-force set. An inner node that dropped a
// child's report, or passed one on twice, breaks the first equation.
func TestStreamExactlyOnce(t *testing.T) {
	des := onEventCore(t, sim.Config{Nodes: 40, Space: schedSpace(t), Seed: 42,
		Engine: squid.Options{SubtreeTimeout: 30 * time.Second}})
	nw := des.Network
	preloadDocs(t, nw, 3000)
	q := keyspace.MustParse("(*, *)")

	in := map[transport.Addr]int{}
	out := map[transport.Addr]int{}
	des.Net.SetObserver(func(from, to transport.Addr, msg any) {
		nw.Metrics.Observe(from, to, msg)
		m, ok := msg.(*squid.SubResultMsg)
		if !ok {
			return
		}
		n := reportLen(m)
		out[from] += n
		in[to] += n
	})
	sr, _ := nw.QueryStream(0, q)
	if sr.Err != nil {
		t.Fatal(sr.Err)
	}
	if want := len(nw.BruteForceMatches(q)); len(sr.Matches) != want {
		t.Fatalf("delivered %d matches, brute force %d", len(sr.Matches), want)
	}

	root := nw.Peers[0].Addr()
	inner := 0
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
			inner++
		}
	}
	if inner == 0 {
		t.Error("no inner node passed its children's matches on")
	}
}

// reportLen counts the matches a SubResultMsg carries, its linked
// reports' included: the list its encoding would hold.
func reportLen(m *squid.SubResultMsg) int {
	n := 0
	for b := range m.Batches() {
		n += len(b)
	}
	return n
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
// at-least-once — so the union is deduplicated first). A page cancelled
// before it delivered anything must hand back the cursor it resumed from,
// not one below it or an exhausted one. A cursor handed to a different
// query must be refused before anything starts: resuming another query's
// curve position would silently skip matches.
func TestStreamCursorPagination(t *testing.T) {
	nw := buildNetwork(t, 30, 2000, squid.Options{})
	q := keyspace.MustParse("(comp*, *)")
	want := sortedData(nw.BruteForceMatches(q))
	if len(want) < 15 {
		t.Fatalf("test query too narrow: %d matches", len(want))
	}

	const page = 7
	seen := map[string]bool{}
	var cur, mid squid.Cursor
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
		if mid == "" {
			mid = cur
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

	// A page cancelled before its refinement resolved delivered nothing
	// past its cursor, so it hands back the cursor it resumed from.
	p := nw.Peers[3]
	cut := make(chan squid.StreamEvent, 1)
	sim.MustInvoke(p, func() {
		qid, err := p.Engine.QueryStreamFunc(context.Background(), q, func(ev squid.StreamEvent) {
			if ev.Done {
				cut <- ev
			}
		}, squid.Limit(page), squid.WithCursor(mid))
		if err != nil {
			cut <- squid.StreamEvent{Err: err}
			return
		}
		p.Engine.CancelQuery(qid)
	})
	if ev := <-cut; ev.Err != context.Canceled || ev.Cursor != mid {
		t.Errorf("page cancelled at once: error %v, cursor %q (exhausted %v), want context.Canceled and the cursor it resumed from",
			ev.Err, ev.Cursor, ev.Cursor.Exhausted())
	}
	nw.Quiesce()

	other := keyspace.MustParse("(computer, *)")
	for _, c := range []squid.Cursor{mid, cur} {
		sr, qm := nw.QueryStream(0, other, squid.WithCursor(c))
		if sr.Err == nil {
			t.Errorf("%s resumed with a cursor of %s (exhausted %v): %d matches, no error",
				other, q, c.Exhausted(), len(sr.Matches))
		}
		if len(sr.Matches) != 0 || qm.RouteMessages+qm.ClusterMessages+qm.ProbeMessages != 0 {
			t.Errorf("refused resume still ran: %d matches, %+v", len(sr.Matches), qm)
		}
	}
}

// TestStreamLimitRepliesCapped pages a query whose matches include a run
// at one curve index to exhaustion through cursors, at several page sizes,
// on a ring with a result cache; then, at k ∈ {1, 3}, the exact query of
// that one index, whose every match sits in the run. Every SubResultMsg
// of a Limit(k) page, with the reports linked behind it, must carry at
// most k + skip + 1 matches, skip being the elements at the page's cursor
// position already delivered, and the pages together must deliver the
// brute-force set in curve order. Unlimited queries of the range query, streamed and
// one-shot, then return it all.
func TestStreamLimitRepliesCapped(t *testing.T) {
	des := onEventCore(t, sim.Config{Nodes: 30, Space: schedSpace(t), Seed: 11,
		Engine: squid.Options{ResultCacheSize: 64}})
	nw := des.Network
	preloadDocs(t, nw, 600)
	run := make([]squid.Element, 6)
	for i := range run {
		run[i] = squid.Element{Values: []string{"computer", "network"}, Data: fmt.Sprintf("run%d", i)}
	}
	if err := nw.Preload(run); err != nil {
		t.Fatal(err)
	}
	q := keyspace.MustParse("(comp*, *)")
	want := sortedData(nw.BruteForceMatches(q))
	index := func(e squid.Element) uint64 {
		idx, err := nw.Space.Index(e.Values)
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}

	largest := map[squid.QueryID]int{}
	des.Net.SetObserver(func(from, to transport.Addr, msg any) {
		nw.Metrics.Observe(from, to, msg)
		if m, ok := msg.(*squid.SubResultMsg); ok {
			largest[m.QID] = max(largest[m.QID], reportLen(m))
		}
	})

	paginate := func(q keyspace.Query, k int) {
		want := sortedData(nw.BruteForceMatches(q))
		var cur squid.Cursor
		seen := map[string]bool{}
		var firsts []squid.Element
		for pageNo := 0; ; pageNo++ {
			if pageNo > len(want)+5 {
				t.Fatalf("%s Limit(%d): pagination did not converge", q, k)
			}
			opts := []squid.QueryOption{squid.Limit(k)}
			skip := 0
			if pageNo > 0 {
				opts = append(opts, squid.WithCursor(cur))
				skip = squid.CursorSkip(cur)
			}
			sr, _ := nw.QueryStream(pageNo%len(nw.Peers), q, opts...)
			if sr.Err != nil {
				t.Fatalf("%s Limit(%d) page %d: %v", q, k, pageNo, sr.Err)
			}
			if n := largest[sr.QID]; n > k+skip+1 {
				t.Errorf("%s Limit(%d) page %d (skip %d): a reply carried %d matches", q, k, pageNo, skip, n)
			}
			for _, e := range sr.Matches {
				if !seen[e.Data] {
					seen[e.Data] = true
					firsts = append(firsts, e)
				}
			}
			cur = sr.Cursor
			if cur.Exhausted() {
				break
			}
		}
		if got := sortedData(firsts); !equalSets(got, want) {
			t.Errorf("%s Limit(%d): pages delivered %d distinct matches, brute force %d", q, k, len(got), len(want))
		}
		for i := 1; i < len(firsts); i++ {
			if index(firsts[i]) < index(firsts[i-1]) {
				t.Errorf("%s Limit(%d): match %d (%s) delivered after a higher curve index", q, k, i, firsts[i].Data)
				break
			}
		}
	}
	for _, k := range []int{1, 3, 10} {
		paginate(q, k)
	}
	point := keyspace.MustParse("(computer, network)")
	if n := len(nw.BruteForceMatches(point)); n < 3+2 {
		t.Fatalf("%s has %d matches: too few to cap a Limit(3) page", point, n)
	}
	for _, k := range []int{1, 3} {
		paginate(point, k)
	}
	// Resumed past every match, the point query and the range query end at
	// once, exhausted, without a message.
	for _, c := range []struct {
		q   keyspace.Query
		pos uint64
	}{
		{point, index(run[0]) + 1},
		{q, 1 << nw.Space.IndexBits()},
	} {
		sr, qm := nw.QueryStream(0, c.q, squid.Limit(3), squid.WithCursor(squid.CursorAt(c.q, c.pos, 0)))
		if sr.Err != nil || len(sr.Matches) != 0 || !sr.Cursor.Exhausted() || qm.RouteMessages+qm.ClusterMessages+qm.ProbeMessages != 0 {
			t.Errorf("%s resumed at %d: %d matches, error %v, exhausted %v, %+v", c.q, c.pos, len(sr.Matches), sr.Err, sr.Cursor.Exhausted(), qm)
		}
	}

	sr, _ := nw.QueryStream(0, q)
	if sr.Err != nil || !equalSets(sortedData(sr.Matches), want) {
		t.Errorf("unlimited stream: %d matches (err %v), brute force %d", len(sr.Matches), sr.Err, len(want))
	}
	if n := largest[sr.QID]; n <= 3+len(run)+1 {
		t.Errorf("unlimited stream's largest reply has %d matches: no Limit(3) page could have been capped", n)
	}
	res, _ := nw.Query(1, q)
	if res.Err != nil || !equalSets(sortedData(res.Matches), want) {
		t.Errorf("unlimited query: %d matches (err %v), brute force %d", len(res.Matches), res.Err, len(want))
	}
}

// TestStreamCancelMidStream cancels a streaming query from inside its own
// delivery callback — the deterministic cancellation point: the first batch
// has arrived while sibling subtrees are still refining. The stream must
// finish exactly once with context.Canceled, deliver nothing after Done,
// and tear its outstanding subtrees down with QueryCancelMsg. A Limit(k)
// stream cancelled inside its first ordered batch must do the same.
func TestStreamCancelMidStream(t *testing.T) {
	nw := buildNetwork(t, 40, 3000, squid.Options{})
	q := keyspace.MustParse("(*, *)")
	p := nw.Peers[0]

	for _, limit := range []int{0, 20} {
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
			}, squid.Limit(limit))
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
			t.Fatalf("Limit(%d): cancelled stream never finished", limit)
		}
		nw.Quiesce()

		if !cancelResult {
			t.Errorf("Limit(%d): CancelQuery did not find the in-flight query", limit)
		}
		if doneCount != 1 {
			t.Fatalf("Limit(%d): stream finished %d times", limit, doneCount)
		}
		if afterDone != 0 {
			t.Fatalf("Limit(%d): %d batches delivered after Done", limit, afterDone)
		}
		last := events[len(events)-1]
		if !last.Done {
			t.Fatalf("Limit(%d): Done is not the final event", limit)
		}
		if last.Err != context.Canceled {
			t.Fatalf("Limit(%d): cancelled stream error = %v, want context.Canceled", limit, last.Err)
		}
		if last.Cursor.Exhausted() {
			t.Errorf("Limit(%d): cancelled stream reports an exhausted cursor", limit)
		}
		qm := nw.Metrics.ForQuery(qid)
		if qm.CancelMessages == 0 {
			t.Errorf("Limit(%d): cancellation sent no QueryCancelMsg teardown", limit)
		}
		// The network is quiet and the root is gone: a second cancel is a no-op.
		if nw.CancelQuery(0, qid) {
			t.Errorf("Limit(%d): finished query still cancellable", limit)
		}
	}
}

// TestStreamContextCancel drives cancellation through the context instead
// of CancelQuery, with half the members crashed so the query is still in
// flight when the cancel lands. The terminal event must carry the
// context's error and arrive exactly once.
func TestStreamContextCancel(t *testing.T) {
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Probes into the crashed half time out, so each dispatch round still
	// flushes what the live half owns.
	nw, err := sim.Build(sim.Config{Nodes: 30, Space: space, Seed: 42,
		Chord: chord.Config{RPCTimeout: 50 * time.Millisecond}})
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
	for i := 1; i < len(nw.Peers); i += 2 {
		nw.Faults.Crash(nw.Peers[i].Addr())
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
// ResultStream drained with Next from an ordinary goroutine while batches
// are produced on the node's delivery goroutine.
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
	var all []squid.Element
	for batch, ok := s.Next(); ok; batch, ok = s.Next() {
		if len(batch) == 0 {
			t.Error("Next returned an empty batch")
		}
		all = append(all, batch...)
	}
	if err := s.Err(); err != nil {
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
// elements instead of a stale page, and then their removal.
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

	// A publish into cached clusters must invalidate them: the next repeat
	// returns the new elements, not the cached page. The elements spread
	// over the query's region, so some land in leaves cached away from the
	// root.
	var fresh []squid.Element
	for _, w := range []string{"computer", "computation", "company", "compiler"} {
		for _, v := range testVocab {
			fresh = append(fresh, squid.Element{Values: []string{w, v}, Data: fmt.Sprintf("fresh-%d", len(fresh))})
		}
	}
	for i, e := range fresh {
		if err := nw.Publish(i%len(nw.Peers), e); err != nil {
			t.Fatal(err)
		}
	}
	nw.Quiesce()
	want2 := sortedData(nw.BruteForceMatches(q))
	if len(want2) != len(want)+len(fresh) {
		t.Fatalf("publish did not land: %d vs %d", len(want2), len(want)+len(fresh))
	}
	third, _ := nw.QueryStream(1, q)
	if third.Err != nil {
		t.Fatal(third.Err)
	}
	if !equalSets(sortedData(third.Matches), want2) {
		t.Errorf("post-publish query stale: %d matches, want %d (cache not invalidated)",
			len(third.Matches), len(want2))
	}

	// An unpublish out of cached clusters invalidates them as well.
	errs := make(chan error, len(fresh))
	for i, e := range fresh {
		p := nw.Peers[i%len(nw.Peers)]
		sim.MustInvoke(p, func() { errs <- p.Engine.Unpublish(e) })
	}
	for range fresh {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	nw.Quiesce()
	if n := len(nw.BruteForceMatches(q)); n != len(want) {
		t.Fatalf("unpublish did not land: %d vs %d", n, len(want))
	}
	fourth, _ := nw.QueryStream(1, q)
	if fourth.Err != nil {
		t.Fatal(fourth.Err)
	}
	if !equalSets(sortedData(fourth.Matches), want) {
		t.Errorf("post-unpublish query stale: %d matches, want %d (cache not invalidated)",
			len(fourth.Matches), len(want))
	}
	hits2, _ := resultCacheCounts(nw)
	if hits2 <= hits1 {
		t.Errorf("repeats after the writes recorded no cache hits (%d -> %d): the writes cleared the whole cache", hits1, hits2)
	}

	// Legacy (non-streaming) repeats ride the same cache.
	res, _ := nw.Query(4, q)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !equalSets(sortedData(res.Matches), want) {
		t.Errorf("legacy query through cache wrong: %d vs %d", len(res.Matches), len(want))
	}
}

// TestStreamUnderChaos streams under message drops with the full recovery
// stack on: every stream must terminate (no hang), report either a clean
// or an explicitly partial result, and never deliver after Done. Run with
// -race this doubles as the streaming data-race check.
func TestStreamUnderChaos(t *testing.T) {
	nw := onGoroutines(t, chaosConfig(t, 30, 99))
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
	nw.Faults.SetDropRate(0.10)

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
	nw.Faults.SetDropRate(0)
	nw.Quiesce()
}
