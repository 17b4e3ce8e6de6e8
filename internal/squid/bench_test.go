package squid_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"squid/internal/keyspace"
	"squid/internal/sim"
	"squid/internal/squid"
)

func benchNetwork(b *testing.B, nodes, elems int) *sim.Network {
	return buildBenchNetwork(b, nodes, elems, false)
}

func buildBenchNetwork(b *testing.B, nodes, elems int, traced bool) *sim.Network {
	b.Helper()
	space, err := keyspace.NewWordSpace(2, 32)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := sim.Build(sim.Config{Nodes: nodes, Space: space, Seed: 42, Trace: traced})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	batch := make([]squid.Element, elems)
	for i := range batch {
		batch[i] = squid.Element{
			Values: []string{testVocab[rng.Intn(len(testVocab))], testVocab[rng.Intn(len(testVocab))]},
			Data:   fmt.Sprintf("doc%d", i),
		}
	}
	if err := nw.Preload(batch); err != nil {
		b.Fatal(err)
	}
	return nw
}

// BenchmarkPublish measures routed publish throughput on a 100-peer
// network.
func BenchmarkPublish(b *testing.B) {
	nw := benchNetwork(b, 100, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		elem := squid.Element{
			Values: []string{testVocab[i%len(testVocab)], testVocab[(i*7)%len(testVocab)]},
			Data:   "bench",
		}
		if err := nw.Publish(i%len(nw.Peers), elem); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	nw.Quiesce()
}

// BenchmarkExactQuery measures the single-lookup path end to end.
func BenchmarkExactQuery(b *testing.B) {
	nw := benchNetwork(b, 100, 10_000)
	q := keyspace.MustParse("(computer, network)")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := nw.Query(i%len(nw.Peers), q)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkPrefixQuery measures a flexible partial-keyword query end to
// end (distributed refinement, aggregation, result collection).
func BenchmarkPrefixQuery(b *testing.B) {
	nw := benchNetwork(b, 100, 10_000)
	q := keyspace.MustParse("(comp*, *)")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := nw.Query(i%len(nw.Peers), q)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// benchEngineQuery is the shared body of the telemetry cost guard: the
// same prefix query as BenchmarkPrefixQuery (distributed refinement,
// aggregation, result collection).
func benchEngineQuery(b *testing.B, nw *sim.Network) {
	q := keyspace.MustParse("(comp*, *)")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := nw.Query(i%len(nw.Peers), q)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkEngineQuery_Uninstrumented is the baseline for the telemetry
// cost guard: metric counters are wired (they always are) but query
// tracing is off, so no spans are recorded or shipped.
func BenchmarkEngineQuery_Uninstrumented(b *testing.B) {
	benchEngineQuery(b, buildBenchNetwork(b, 100, 10_000, false))
}

// BenchmarkEngineQuery_Instrumented runs the same query with tracing on:
// every refinement hop records a span and ships it up the result path.
// EXPERIMENTS.md records the delta. The <5% budget applies to untraced
// queries (always-on counters only; single atomic ops, 0 allocs);
// per-query sampled tracing costs more and is opt-in.
func BenchmarkEngineQuery_Instrumented(b *testing.B) {
	benchEngineQuery(b, buildBenchNetwork(b, 100, 10_000, true))
}

// BenchmarkStreamRangeQuery drains a QueryStream of the full-space query
// from a consumer goroutine, as a client of a ring does: the streaming
// result path (scan, reports linked at inner nodes, root delivery) with
// every stored element matching.
func BenchmarkStreamRangeQuery(b *testing.B) {
	nw := benchNetwork(b, 100, 10_000)
	q := keyspace.MustParse("(*, *)")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := nw.Peers[i%len(nw.Peers)]
		started := make(chan *squid.ResultStream, 1)
		sim.MustInvoke(p, func() {
			s, err := p.Engine.QueryStream(context.Background(), q)
			if err != nil {
				b.Error(err)
			}
			started <- s
		})
		s := <-started
		if s == nil {
			b.FailNow()
		}
		n := 0
		for batch, ok := s.Next(); ok; batch, ok = s.Next() {
			n += len(batch)
		}
		if s.Err() != nil || n != 10_000 {
			b.Fatalf("stream delivered %d matches, err %v", n, s.Err())
		}
	}
}

// BenchmarkWildcardQuery measures the worst-case full-space query.
func BenchmarkWildcardQuery(b *testing.B) {
	nw := benchNetwork(b, 100, 10_000)
	q := keyspace.MustParse("(*, *)")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := nw.Query(i%len(nw.Peers), q)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}
