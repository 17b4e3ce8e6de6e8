package squid_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"squid/internal/keyspace"
	"squid/internal/sim"
	"squid/internal/squid"
	"squid/internal/transport"
)

// schedSpace is the small keyword space shared by the scheduler tests.
func schedSpace(t testing.TB) *keyspace.Space {
	t.Helper()
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// schedCorpus publishes a deterministic corpus through the overlay.
func schedCorpus(t *testing.T, nw *sim.Network, n int, seed int64) []squid.Element {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	elems := make([]squid.Element, 0, n)
	for i := 0; i < n; i++ {
		e := squid.Element{
			Values: []string{randSoakWord(rng), randSoakWord(rng)},
			Data:   fmt.Sprintf("sched-%05d", i),
		}
		if err := nw.Publish(rng.Intn(len(nw.Peers)), e); err != nil {
			t.Fatal(err)
		}
		elems = append(elems, e)
	}
	nw.Quiesce()
	return elems
}

// TestSchedulerConcurrentQueriesSound fires many queries concurrently from
// every peer — no quiesce between them, so refinement jobs from different
// queries interleave on every node's worker pool — and checks each result
// for exact recall. Run under -race this is the scheduler's memory-model
// test: workers share the stores and arc snapshots with concurrent
// handovers and publishes only through the documented synchronization.
func TestSchedulerConcurrentQueriesSound(t *testing.T) {
	nw, err := sim.Build(sim.Config{Nodes: 10, Space: schedSpace(t), Seed: 7001})
	if err != nil {
		t.Fatal(err)
	}
	schedCorpus(t, nw, 250, 7002)

	queries := []keyspace.Query{
		keyspace.MustParse("(*, *)"),
		keyspace.MustParse("(a*, *)"),
		keyspace.MustParse("(*, m*)"),
		keyspace.MustParse("(b-f, *)"),
		keyspace.MustParse("(q*, a-m)"),
	}
	want := make([]int, len(queries))
	for i, q := range queries {
		want[i] = len(nw.BruteForceMatches(q))
	}

	const perPeer = 3
	total := len(nw.Peers) * perPeer
	type outcome struct {
		qi  int
		res squid.Result
	}
	results := make(chan outcome, total)
	for pi, p := range nw.Peers {
		p := p
		for k := 0; k < perPeer; k++ {
			qi := (pi + k) % len(queries)
			sim.MustInvoke(p, func() {
				p.Engine.Query(queries[qi], func(r squid.Result) {
					results <- outcome{qi: qi, res: r}
				})
			})
		}
	}
	for i := 0; i < total; i++ {
		select {
		case out := <-results:
			if out.res.Err != nil {
				t.Fatalf("query %s: %v", queries[out.qi], out.res.Err)
			}
			if len(out.res.Matches) != want[out.qi] {
				t.Errorf("query %s: %d matches, want %d", queries[out.qi], len(out.res.Matches), want[out.qi])
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("timed out with %d/%d results", i, total)
		}
	}
	nw.Quiesce()
}

// TestSchedulerMatchesSerial pins scheduled processing to the serial
// baseline: identical networks — one with the worker pool, one refining
// inline on the delivery goroutine — must produce identical results AND
// identical per-query cost metrics. The scheduler moves work off the
// delivery goroutine; it must not change what the queries cost.
func TestSchedulerMatchesSerial(t *testing.T) {
	space := schedSpace(t)
	build := func(serial bool) *sim.Network {
		opts := squid.Options{}
		if serial {
			opts.Workers = -1
		} else {
			opts.Workers = 2
		}
		nw, err := sim.Build(sim.Config{Nodes: 8, Space: space, Seed: 7101, Engine: opts})
		if err != nil {
			t.Fatal(err)
		}
		schedCorpus(t, nw, 200, 7102)
		return nw
	}
	serial, sched := build(true), build(false)

	for _, qs := range []string{"(*, *)", "(a*, *)", "(*, b-k)", "(m*, t*)"} {
		q := keyspace.MustParse(qs)
		for via := range serial.Peers {
			resA, qmA := serial.Query(via, q)
			resB, qmB := sched.Query(via, q)
			if resA.Err != nil || resB.Err != nil {
				t.Fatalf("%s via %d: serial err=%v sched err=%v", qs, via, resA.Err, resB.Err)
			}
			if len(resA.Matches) != len(resB.Matches) {
				t.Errorf("%s via %d: serial %d matches, sched %d", qs, via, len(resA.Matches), len(resB.Matches))
			}
			if qmA.ClusterMessages != qmB.ClusterMessages || qmA.PayloadHops != qmB.PayloadHops ||
				qmA.RouteMessages != qmB.RouteMessages {
				t.Errorf("%s via %d: cost diverged: serial %+v sched %+v", qs, via, qmA, qmB)
			}
		}
	}
}

// TestSchedulerFIFOOrder pins the pool's fairness discipline: with one
// worker, jobs admitted in one delivery-goroutine turn complete in
// submission order (the queue is FIFO, completions are delivered in
// order). A later cheap query must not overtake an earlier one.
func TestSchedulerFIFOOrder(t *testing.T) {
	nw, err := sim.BuildWithIDs(sim.Config{
		Space:  schedSpace(t),
		Engine: squid.Options{Workers: 1},
	}, []uint64{1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	schedCorpus(t, nw, 100, 7201)
	p := nw.Peers[0]

	const n = 6
	order := make(chan squid.Result, n)
	var submitted []squid.QueryID
	doneSubmit := make(chan struct{})
	sim.MustInvoke(p, func() {
		defer close(doneSubmit)
		for i := 0; i < n; i++ {
			submitted = append(submitted, p.Engine.Query(keyspace.MustParse("(*, *)"), func(r squid.Result) {
				order <- r
			}))
		}
	})
	<-doneSubmit
	for i := 0; i < n; i++ {
		select {
		case got := <-order:
			if got.Err != nil {
				t.Fatalf("completion %d: %v", i, got.Err)
			}
			if got.QID != submitted[i] {
				t.Fatalf("completion %d: qid %d, want %d (FIFO violated)", i, got.QID, submitted[i])
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for completion %d", i)
		}
	}
}

// TestOverloadShedsRootQueries drives the admission cap deterministically:
// submissions inside a single delivery-goroutine turn cannot be drained
// (completions queue behind the running handler), so the cap-th-plus-one
// query must shed synchronously with ErrOverloaded — observable through
// QueryStreamFunc's returned error, its retry-after hint, and the
// telemetry registry.
func TestOverloadShedsRootQueries(t *testing.T) {
	nw, err := sim.BuildWithIDs(sim.Config{
		Space:  schedSpace(t),
		Engine: squid.Options{Workers: 2, MaxInflight: 2},
	}, []uint64{1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	schedCorpus(t, nw, 50, 7301)
	p := nw.Peers[0]

	const n = 6
	results := make(chan error, n)
	errs := make(chan error, n)
	sim.MustInvoke(p, func() {
		for i := 0; i < n; i++ {
			_, err := p.Engine.QueryStreamFunc(context.Background(), keyspace.MustParse("(*, *)"), func(ev squid.StreamEvent) {
				if ev.Done {
					results <- ev.Err
				}
			})
			errs <- err
		}
	})
	admitted, shed := 0, 0
	for i := 0; i < n; i++ {
		err := <-errs
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, squid.ErrOverloaded):
			shed++
			var oe *squid.OverloadError
			if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
				t.Errorf("shed error %v: want *OverloadError with positive RetryAfter", err)
			}
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if admitted != 2 || shed != n-2 {
		t.Fatalf("admitted=%d shed=%d, want 2 and %d (cap is deterministic within one turn)", admitted, shed, n-2)
	}
	for i := 0; i < admitted; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatalf("admitted query failed: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("admitted query never completed")
		}
	}
	var buf bytes.Buffer
	if err := nw.Telemetry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`squid_sched_shed_total{kind="root"`)) &&
		!bytes.Contains(buf.Bytes(), []byte(`kind="root"`)) {
		t.Errorf("telemetry does not expose the root shed counter:\n%s", buf.String())
	}
}

// TestStreamContextOutcomes covers the three context outcomes of a
// streaming root: a context already done fails synchronously (nothing is
// delivered), a cancellation mid-flight finishes the stream with the
// context's error, and a context deadline bounds a query that would
// otherwise hang forever on a dead peer. The last two run the root's
// context watcher goroutine, in the push and the pull form.
func TestStreamContextOutcomes(t *testing.T) {
	space := schedSpace(t)
	build := func(seed int64) *sim.Network {
		nw, err := sim.Build(sim.Config{
			Nodes: 6, Space: space, Seed: seed,
			// No SubtreeTimeout and no QueryDeadline: nothing but the
			// context can end a query whose child subtree is black-holed.
			Net: transport.FaultConfig{Seed: seed + 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		schedCorpus(t, nw, 120, seed+2)
		return nw
	}
	q := keyspace.MustParse("(*, *)")

	t.Run("already-done", func(t *testing.T) {
		nw := build(7401)
		p := nw.Peers[0]
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		errCh := make(chan error, 2)
		sim.MustInvoke(p, func() {
			_, err := p.Engine.QueryStreamFunc(ctx, q, func(squid.StreamEvent) {
				t.Error("stream delivered for a context that was already done")
			})
			errCh <- err
			s, err := p.Engine.QueryStream(ctx, q)
			if s != nil {
				t.Error("QueryStream returned a stream for a context that was already done")
			}
			errCh <- err
		})
		for range 2 {
			if err := <-errCh; !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		}
	})

	t.Run("cancel-mid-flight", func(t *testing.T) {
		nw := build(7501)
		// Black-hole every peer but the root: remote subtrees never answer,
		// so the query stays open until the context ends it.
		for _, p := range nw.Peers[1:] {
			nw.Faults.Crash(p.Addr())
		}
		p := nw.Peers[0]
		ctx, cancel := context.WithCancel(context.Background())
		doneCh := make(chan error, 1)
		errCh := make(chan error, 1)
		sim.MustInvoke(p, func() {
			_, err := p.Engine.QueryStreamFunc(ctx, q, func(ev squid.StreamEvent) {
				if ev.Done {
					doneCh <- ev.Err
				}
			})
			errCh <- err
		})
		if err := <-errCh; err != nil {
			t.Fatalf("QueryStreamFunc: %v", err)
		}
		select {
		case err := <-doneCh:
			t.Fatalf("query completed before cancel: %v", err)
		case <-time.After(50 * time.Millisecond):
		}
		cancel()
		select {
		case err := <-doneCh:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("stream err = %v, want context.Canceled", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("cancelled query never finished its stream")
		}
	})

	t.Run("deadline", func(t *testing.T) {
		nw := build(7601)
		for _, p := range nw.Peers[1:] {
			nw.Faults.Crash(p.Addr())
		}
		p := nw.Peers[0]
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		streamCh := make(chan *squid.ResultStream, 1)
		sim.MustInvoke(p, func() {
			s, err := p.Engine.QueryStream(ctx, q)
			if err != nil {
				t.Errorf("QueryStream: %v", err)
			}
			streamCh <- s
		})
		s := <-streamCh
		if s == nil {
			t.FailNow()
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for _, ok := s.Next(); ok; _, ok = s.Next() {
			}
		}()
		select {
		case <-drained:
			if !errors.Is(s.Err(), context.DeadlineExceeded) {
				t.Fatalf("stream err = %v, want context.DeadlineExceeded", s.Err())
			}
		case <-time.After(10 * time.Second):
			t.Fatal("deadline-bounded query never finished its stream")
		}
	})
}

// TestWrapArcBatchedDispatch pins one message per destination per dispatch
// round on the topology that tests it. The query (*, e) decomposes into
// curve clusters at both extremes of the index space (the Hilbert curve
// splits a fixed second axis across the first and last quadrants) plus a
// group in between. Node identifiers are placed so the wrap-arc owner (id
// 0x10000000, predecessor 0xD0000000) owns both extreme groups while a
// middle node owns the rest: a dispatch round at either non-owning peer
// then resolves the wrap owner's low and high runs as SEPARATE runs of its
// sorted cluster list — split by the middle node's run — and must merge
// them into the wrap owner's one ClusterQueryMsg. At the middle node the
// two runs are adjacent, so plain run-aggregation merges them; both cases
// keep exact recall and exact per-message counts.
func TestWrapArcBatchedDispatch(t *testing.T) {
	space := schedSpace(t)
	var elems []squid.Element
	for a := 0; a < 26; a++ {
		for b := 0; b < 26; b += 2 {
			elems = append(elems, squid.Element{
				Values: []string{string(rune('a' + a)), string(rune('a' + b))},
				Data:   fmt.Sprintf("e-%c%c", 'a'+a, 'a'+b),
			})
		}
	}
	ids := []uint64{0x10000000, 0x40000000, 0xA0000000, 0xD0000000}
	nw, err := sim.BuildWithIDs(sim.Config{
		Space: space,
		// A fine-grained initial cover: coarse merging must not fuse the
		// region's three cluster groups into one span, or every dispatch
		// degenerates to a single forward.
		Engine: squid.Options{InitialClusters: 64},
	}, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range elems {
		if err := nw.Publish(i%len(nw.Peers), e); err != nil {
			t.Fatal(err)
		}
	}
	nw.Quiesce()

	// Record every dispatch round: its destinations and how many runs
	// joined an earlier run's message.
	var (
		mu     sync.Mutex
		dests  [][]transport.Addr
		merged int
	)
	for _, p := range nw.Peers {
		sim.MustInvoke(p, func() {
			p.Engine.SetDebugDispatch(func(d []transport.Addr, m int) {
				mu.Lock()
				defer mu.Unlock()
				dests = append(dests, d)
				merged += m
			})
		})
	}
	nw.Quiesce()

	q := keyspace.MustParse("(*, e)")
	want := len(nw.BruteForceMatches(q))
	if want == 0 {
		t.Fatal("query matches nothing; corpus construction broken")
	}
	total := 0
	for via := 0; via < len(nw.Peers); via++ {
		mu.Lock()
		dests, merged = nil, 0
		mu.Unlock()
		res, qm := nw.Query(via, q)
		if res.Err != nil {
			t.Fatalf("via %d: %v", via, res.Err)
		}
		if len(res.Matches) != want {
			t.Errorf("via %d: %d matches, want %d", via, len(res.Matches), want)
		}
		if qm.PayloadHops != qm.ClusterMessages {
			t.Errorf("via %d: a cluster was blind-routed: %+v", via, qm)
		}
		mu.Lock()
		sent := 0
		for _, round := range dests {
			seen := map[transport.Addr]bool{}
			for _, d := range round {
				if seen[d] {
					t.Errorf("via %d: round %v sends %s more than one ClusterQueryMsg", via, round, d)
				}
				seen[d] = true
			}
			sent += len(round)
		}
		if sent != qm.ClusterMessages {
			t.Errorf("via %d: rounds flushed %d messages, the network carried %d", via, sent, qm.ClusterMessages)
		}
		if via >= 2 && merged == 0 {
			t.Errorf("via %d: wrap owner's split runs were not merged into one message", via)
		}
		total += merged
		mu.Unlock()
	}
	if total == 0 {
		t.Fatal("no dispatch round merged runs for a repeat destination")
	}
}

// TestChaosOverloadSoak combines the chaos drop rate with a tight
// admission cap: bursts of queries (submitted in one delivery-goroutine
// turn, so the cap deterministically sheds part of each burst) ride a 15%
// lossy transport. The contract: every query resolves — complete, an
// explicit partial, or an explicit overload rejection — and never hangs;
// results remain sound throughout.
func TestChaosOverloadSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos overload soak skipped in short mode")
	}
	space := schedSpace(t)
	nw, err := sim.Build(sim.Config{
		Nodes: 12, Space: space, Seed: 7701,
		Engine: squid.Options{
			Replicas:       2,
			SubtreeTimeout: 50 * time.Millisecond,
			SubtreeRetries: 2,
			QueryDeadline:  2 * time.Second,
			Workers:        2,
			MaxInflight:    3,
		},
		Chord: chordRetryConfig(),
		Net:   transport.FaultConfig{Seed: 7702},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7703))
	chaosPublish(t, nw, rng, 200)
	nw.Faults.SetDropRate(0.15)

	queries := []keyspace.Query{
		keyspace.MustParse("(*, *)"),
		keyspace.MustParse("(a*, *)"),
		keyspace.MustParse("(*, m*)"),
		keyspace.MustParse("(b-f, *)"),
	}
	truth := make([][]squid.Element, len(queries))
	for i, q := range queries {
		truth[i] = nw.BruteForceMatches(q)
	}

	const rounds, burst = 6, 8
	complete, partial, overloaded := 0, 0, 0
	for round := 0; round < rounds; round++ {
		p := nw.Peers[rng.Intn(len(nw.Peers))]
		qi := rng.Intn(len(queries))
		results := make(chan squid.Result, burst)
		sim.MustInvoke(p, func() {
			for i := 0; i < burst; i++ {
				p.Engine.Query(queries[qi], func(r squid.Result) { results <- r })
			}
		})
		for i := 0; i < burst; i++ {
			select {
			case r := <-results:
				label := fmt.Sprintf("round %d query %d", round, i)
				switch {
				case r.Err == nil:
					checkAnswer(t, label, r, truth[qi])
					complete++
				case errors.Is(r.Err, squid.ErrOverloaded):
					overloaded++
				case errors.Is(r.Err, squid.ErrPartialResult) || errors.Is(r.Err, context.DeadlineExceeded):
					checkAnswer(t, label, r, truth[qi])
					partial++
				default:
					t.Fatalf("%s: unexpected error class: %v", label, r.Err)
				}
			case <-time.After(20 * time.Second):
				t.Fatalf("round %d: query %d hung past every deadline", round, i)
			}
		}
		nw.Quiesce()
	}
	if overloaded == 0 {
		t.Error("no query shed despite bursts exceeding the admission cap")
	}
	if complete == 0 {
		t.Error("no query completed — load was not realistic")
	}
	var buf bytes.Buffer
	if err := nw.Telemetry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("squid_sched_shed_total")) {
		t.Error("telemetry does not expose shed counters")
	}
	t.Logf("overload soak: %d complete / %d partial / %d overloaded", complete, partial, overloaded)
}
