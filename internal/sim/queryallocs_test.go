package sim_test

import (
	"runtime"
	"testing"
	"time"

	"squid/internal/keyspace"
	"squid/internal/sim"
	"squid/internal/squid"
	"squid/internal/workload"
)

// TestInprocQueryAllocs is the goroutine ring's counterpart of the event
// core's TestDesQueryAllocs: it bounds what a query costs the heap end to
// end on the wall clock, where every engine runs its refinement on a
// worker pool and every recovery timer is a real one. 300 paper-mix
// queries (Q1, Q2 and Q3 ranges) run ten at a time on a 64-node ring with
// the probe cache and subtree recovery on. Arming, stopping and resetting
// a timer on the wall clock's deadline heap allocates nothing, and a burst
// of worker completions comes back through one pooled drain, so a hop
// allocates its result slices and little else. The bound sits about 10 %
// above the measured count.
func TestInprocQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := sim.Build(sim.Config{
		Nodes: 64,
		Space: space,
		Seed:  17,
		Engine: squid.Options{
			ProbeCacheSize: 64,
			SubtreeTimeout: 2 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	vocab := workload.NewVocabulary(18, 1200, 1.2)
	if err := nw.Preload(workload.Elements(workload.KeyTuples(vocab, 19, 4000, 2))); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewQueryGen(vocab, 20, 2)
	var queries []keyspace.Query
	for range 100 {
		queries = append(queries, gen.Q1(), gen.Q2(), gen.Q3Ranges())
	}
	const wave = 10
	failed := 0
	results := make(chan error, wave)
	pass := func() {
		for start := 0; start < len(queries); start += wave {
			for i := start; i < start+wave; i++ {
				p, q := nw.Peers[i%len(nw.Peers)], queries[i]
				sim.MustInvoke(p, func() {
					p.Engine.Query(q, func(r squid.Result) { results <- r.Err })
				})
			}
			for range wave {
				if err := <-results; err != nil {
					failed++
				}
			}
		}
		nw.Quiesce()
	}
	pass() // warm-up: grow the pools, the timer heap and the probe caches

	failed = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	if failed != 0 {
		t.Fatalf("%d of %d queries failed", failed, len(queries))
	}
	perQuery := float64(after.Mallocs-before.Mallocs) / float64(len(queries))
	t.Logf("%.1f allocs per query", perQuery)
	if perQuery > 39 {
		t.Errorf("%.1f allocs per query, want at most 39", perQuery)
	}
}
