package dessim_test

import (
	"runtime"
	"testing"
	"time"

	"squid/internal/dessim"
	"squid/internal/keyspace"
	"squid/internal/sim"
	"squid/internal/squid"
	"squid/internal/workload"
)

// TestDesQueryAllocs bounds what a query costs the heap end to end on the
// event core: root and remote hops, probes, recovery timers, and
// the harness's per-query accounting. 300 paper-mix queries (Q1, Q2 and
// Q3 ranges) start 20 ms of virtual time apart on a 200-node ring with the
// probe cache and subtree recovery on. A hop allocates its result slices
// and little else: no region, completion closure or probe callback, no
// message box — the per-hop kinds travel by pointer and come back through
// their pools — and no bookkeeping, since a remote hop's subtree, its child
// calls and its dispatch rounds come back through theirs. The bound sits
// about 13 % above the measured count.
func TestDesQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := dessim.Build(dessim.Config{
		Nodes: 200,
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
	done, failed := 0, 0
	pass := func() {
		for i, q := range queries {
			nw.Schedule(time.Duration(i)*20*time.Millisecond, func() {
				p := nw.Peers[i%len(nw.Peers)]
				sim.MustInvoke(p, func() {
					p.Engine.Query(q, func(r squid.Result) {
						done++
						if r.Err != nil {
							failed++
						}
					})
				})
			})
		}
		nw.Run()
	}
	pass() // warm-up: grow the event heap, the pools and the probe caches

	done, failed = 0, 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	if done != len(queries) || failed != 0 {
		t.Fatalf("%d of %d queries completed, %d failed", done, len(queries), failed)
	}
	perQuery := float64(after.Mallocs-before.Mallocs) / float64(len(queries))
	t.Logf("%.1f allocs per query", perQuery)
	if perQuery > 72 {
		t.Errorf("%.1f allocs per query, want at most 72", perQuery)
	}
}
