package squid_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"squid/internal/keyspace"
	"squid/internal/sim"
	"squid/internal/squid"
	"squid/internal/telemetry"
)

// heldBookkeeping waits until nw is idle and sums the pooled bookkeeping
// its engines still hold, each read on its own delivery goroutine.
func heldBookkeeping(nw *sim.Network) int {
	nw.Quiesce()
	held := make([]int, len(nw.Peers))
	for i, p := range nw.Peers {
		sim.MustInvoke(p, func() { held[i] = p.Engine.HeldBookkeeping() })
	}
	nw.Quiesce()
	sum := 0
	for _, h := range held {
		sum += h
	}
	return sum
}

// counterSum sums one label value of a counter family over every node.
func counterSum(reg *telemetry.Registry, family, label, value string) uint64 {
	return reg.CounterVec(family, "", "node", label).Sum(label, value)
}

// TestBookkeepingRecycles runs queries down every path that gives the
// engine's per-hop bookkeeping back, and checks that once the ring is idle
// every engine has given back every remote subtree, child call, dispatch
// round and refinement job it took. The package's tests run with the pools
// poisoned (poison_test.go), so a handler that reaches a subtree after its
// last holder let go panics here instead of reading another query's state.
func TestBookkeepingRecycles(t *testing.T) {
	queries := []keyspace.Query{
		keyspace.MustParse("(computer, network)"),
		keyspace.MustParse("(comp*, *)"),
		keyspace.MustParse("(c-d, *)"),
		keyspace.MustParse("(*, *)"),
	}

	// On the worker pool with a small admission cap: jobs cross to the
	// workers and back, a refused job goes back at once, and a shed remote
	// subtree is abandoned by its parent (no recovery deadline is armed).
	// Whether a remote hop sheds depends on how the workers race the
	// bursts, so bursts repeat until one has.
	t.Run("worker pool", func(t *testing.T) {
		nw := buildNetwork(t, 30, 2000, squid.Options{Workers: 2, MaxInflight: 3})
		for i, q := range queries {
			res, _ := nw.Query(i%len(nw.Peers), q)
			if res.Err != nil && !errors.Is(res.Err, squid.ErrPartialResult) {
				t.Fatalf("%s: %v", q, res.Err)
			}
		}
		reg := nw.Telemetry
		for burst := 0; counterSum(reg, "squid_sched_shed_total", "kind", "child") == 0; burst++ {
			if burst == 20 {
				t.Fatal("20 bursts over the admission cap shed no remote subtree")
			}
			p := nw.Peers[burst%len(nw.Peers)]
			results := make(chan squid.Result, 8)
			sim.MustInvoke(p, func() {
				for range cap(results) {
					p.Engine.Query(queries[3], func(r squid.Result) { results <- r })
				}
			})
			for range cap(results) {
				if r := <-results; r.Err != nil && !errors.Is(r.Err, squid.ErrPartialResult) && !errors.Is(r.Err, squid.ErrOverloaded) {
					t.Fatalf("burst %d: %v", burst, r.Err)
				}
			}
		}
		if held := heldBookkeeping(nw); held != 0 {
			t.Errorf("%d bookkeeping objects never given back", held)
		}
		for _, kind := range []string{"root", "remote"} {
			if counterSum(reg, "squid_sched_shed_total", "kind", kind) == 0 {
				t.Errorf("no %s shed", kind)
			}
		}
	})

	// A limited stream's early completion cancels remote subtrees, on the
	// event core, where the cut falls in the same place every run.
	t.Run("streams", func(t *testing.T) {
		nw := onEventCore(t, sim.Config{Nodes: 30, Space: schedSpace(t), Seed: 7}).Network
		preloadDocs(t, nw, 2000)
		var cur squid.Cursor
		for page := range 4 {
			opts := []squid.QueryOption{squid.Limit(5)}
			if page > 0 {
				opts = append(opts, squid.WithCursor(cur))
			}
			sr, _ := nw.QueryStream(page, queries[1], opts...)
			if sr.Err != nil {
				t.Fatalf("page %d: %v", page, sr.Err)
			}
			cur = sr.Cursor
		}
		if held := heldBookkeeping(nw); held != 0 {
			t.Errorf("%d bookkeeping objects never given back", held)
		}
		if counterSum(nw.Telemetry, "squid_stream_cancels_total", "dir", "recv") == 0 {
			t.Error("no remote subtree was cancelled")
		}
	})

	// Unaggregated dispatch, refined inline on the delivery goroutine: each
	// round routes its clusters one by one and ends in its own loop.
	t.Run("serial unaggregated", func(t *testing.T) {
		nw := buildNetwork(t, 20, 1000, squid.Options{Workers: -1, DisableAggregation: true})
		for i, q := range queries {
			if res, _ := nw.Query(i, q); res.Err != nil {
				t.Fatalf("%s: %v", q, res.Err)
			}
		}
		if held := heldBookkeeping(nw); held != 0 {
			t.Errorf("%d bookkeeping objects never given back", held)
		}
	})

	// Under message loss on the event core: children expire, are
	// re-dispatched or abandoned, and stragglers find no child.
	t.Run("loss", func(t *testing.T) {
		cfg := chaosConfig(t, 16, 4501)
		nw := onEventCore(t, cfg).Network
		rng := rand.New(rand.NewSource(4502))
		chaosPublish(t, nw, rng, 200)
		nw.Faults.SetDropRate(0.15)
		for i := range 30 {
			q := queries[1+i%3]
			res, _ := nw.Query(rng.Intn(len(nw.Peers)), q)
			checkAnswer(t, fmt.Sprintf("%s: query %d %s", seedsOf(cfg), i, q), res, nw.BruteForceMatches(q))
		}
		if held := heldBookkeeping(nw); held != 0 {
			t.Errorf("%s: %d bookkeeping objects never given back", seedsOf(cfg), held)
		}
		reg := nw.Telemetry
		for _, event := range []string{"redispatch", "abandon"} {
			if counterSum(reg, "squid_engine_recovery_total", "event", event) == 0 {
				t.Errorf("%s: no %s under loss", seedsOf(cfg), event)
			}
		}
	})
}
