package squid_test

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"

	"squid/internal/chord"
	"squid/internal/keyspace"
	"squid/internal/sfc"
	"squid/internal/sim"
	"squid/internal/squid"
)

// TestPublishCombinations indexes documents with more keywords than
// dimensions; any 2-keyword (sorted) exact query and any 1-keyword query
// must find them, and Dedup collapses multi-tuple hits.
func TestPublishCombinations(t *testing.T) {
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := sim.Build(sim.Config{Nodes: 20, Space: space, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := nw.Peers[0]
	type pub struct {
		n   int
		err error
	}
	ch := make(chan pub, 1)
	p.Node.Invoke(func() {
		n, err := p.Engine.PublishCombinations(
			[]string{"Storage", "network", "distributed", "storage"}, // dup + case fold
			"paper.pdf")
		ch <- pub{n, err}
	})
	got := <-ch
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.n != 3 { // C(3,2) after dedup/fold: {distributed, network, storage}
		t.Fatalf("published %d tuples, want 3", got.n)
	}
	nw.Quiesce()

	for _, qs := range []string{
		"(distributed, network)", // sorted pairs hit their combination tuple
		"(distributed, storage)",
		"(network, storage)",
		"(network, *)", // positional queries work when the position is right
		"(*, storage)",
	} {
		res, _ := nw.Query(1, keyspace.MustParse(qs))
		if res.Err != nil {
			t.Fatalf("%s: %v", qs, res.Err)
		}
		unique := squid.Dedup(res.Matches)
		if len(unique) != 1 || unique[0].Data != "paper.pdf" {
			t.Errorf("%s: found %d unique (%d raw)", qs, len(unique), len(res.Matches))
		}
	}

	// Keyword queries handle position-free search (a word may sit on any
	// axis of a sorted combination tuple): one placement query per axis
	// assignment, their union deduplicated.
	askWords := func(words ...string) squid.Result { return nw.QueryKeywords(1, words) }
	for _, words := range [][]string{
		{"storage"}, {"network"}, {"distributed"},
		{"storage", "distributed"}, // unsorted input is fine
		{"Network", "storage"},
	} {
		r := askWords(words...)
		if r.Err != nil {
			t.Fatalf("QueryKeywords(%v): %v", words, r.Err)
		}
		if len(r.Matches) != 1 || r.Matches[0].Data != "paper.pdf" {
			t.Errorf("QueryKeywords(%v): %d matches", words, len(r.Matches))
		}
	}
	if r := askWords("zebra"); len(r.Matches) != 0 {
		t.Errorf("QueryKeywords(zebra) found %d", len(r.Matches))
	}
	if r := askWords(); r.Err == nil {
		t.Error("empty QueryKeywords should error")
	}
	if r := askWords("a", "b", "c"); r.Err == nil {
		t.Error("too many keywords should error")
	}
	// A broad query may hit several tuples; Dedup must collapse them.
	res, _ := nw.Query(0, keyspace.MustParse("(*, *)"))
	if len(res.Matches) != 3 {
		t.Errorf("wildcard saw %d raw tuples, want 3", len(res.Matches))
	}
	if got := squid.Dedup(res.Matches); len(got) != 1 {
		t.Errorf("Dedup left %d", len(got))
	}

	// Few keywords: published as a single (padded) tuple.
	p.Node.Invoke(func() {
		n, err := p.Engine.PublishCombinations([]string{"solo"}, "single.txt")
		ch <- pub{n, err}
	})
	if got := <-ch; got.err != nil || got.n != 1 {
		t.Errorf("single keyword publish: %+v", got)
	}
	// No keywords: error.
	p.Node.Invoke(func() {
		n, err := p.Engine.PublishCombinations([]string{"  ", ""}, "none")
		ch <- pub{n, err}
	})
	if got := <-ch; got.err == nil {
		t.Error("empty keywords should error")
	}
}

// TestProbeCacheReducesProbes runs the same query twice from one peer;
// with the cache enabled the second run needs (almost) no probe messages
// and returns identical results.
func TestProbeCacheReducesProbes(t *testing.T) {
	nw := buildNetwork(t, 60, 5000, squid.Options{ProbeCacheSize: 256})
	q := keyspace.MustParse("(comp*, *)")

	res1, qm1 := nw.Query(0, q)
	res2, qm2 := nw.Query(0, q)
	if res1.Err != nil || res2.Err != nil {
		t.Fatal(res1.Err, res2.Err)
	}
	if len(res1.Matches) != len(res2.Matches) {
		t.Fatalf("cache changed results: %d vs %d", len(res1.Matches), len(res2.Matches))
	}
	t.Logf("probes: first=%d second=%d", qm1.ProbeMessages, qm2.ProbeMessages)
	if qm2.ProbeMessages >= qm1.ProbeMessages && qm1.ProbeMessages > 0 {
		t.Errorf("cached run should probe less: %d vs %d", qm2.ProbeMessages, qm1.ProbeMessages)
	}

	// Results stay complete against ground truth.
	want := len(nw.BruteForceMatches(q))
	if len(res2.Matches) != want {
		t.Errorf("cached query incomplete: %d vs %d", len(res2.Matches), want)
	}
}

// TestProbeCacheSurvivesChurn: after the cached owner dies, queries still
// complete correctly (stale entries fall back to probing).
func TestProbeCacheSurvivesChurn(t *testing.T) {
	nw := buildNetwork(t, 30, 3000, squid.Options{ProbeCacheSize: 64, Replicas: 2})
	nw.PushReplicasAll()
	q := keyspace.MustParse("(d*, *)")
	res1, _ := nw.Query(0, q)
	if res1.Err != nil {
		t.Fatal(res1.Err)
	}

	// Kill a peer that likely serves this query, heal, re-query.
	nw.KillPeer(len(nw.Peers) / 2)
	nw.StabilizeAll(8)
	want := len(nw.BruteForceMatches(q))
	res2, _ := nw.Query(0, q)
	if res2.Err != nil {
		t.Fatal(res2.Err)
	}
	if len(res2.Matches) != want {
		t.Errorf("post-churn cached query found %d, want %d", len(res2.Matches), want)
	}
}

// TestEngineStateRoundTripAndReconcile saves a node's state, moves
// ownership, and verifies ReconcileOwnership re-routes stale items.
func TestEngineStateRoundTripAndReconcile(t *testing.T) {
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := sim.BuildWithIDs(sim.Config{Space: space}, []uint64{1 << 20, 1 << 28})
	if err != nil {
		t.Fatal(err)
	}
	p := nw.Peers[0]
	for i := 0; i < 50; i++ {
		if err := nw.Publish(0, squid.Element{
			Values: []string{fmt.Sprintf("w%02d", i), "x"}, Data: fmt.Sprintf("d%d", i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	nw.Quiesce()

	var buf bytes.Buffer
	done := make(chan error, 1)
	p.Node.Invoke(func() { done <- p.Engine.SaveState(&buf) })
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	before := make(chan int, 1)
	p.Node.Invoke(func() { before <- p.Engine.LocalStore().Keys() })
	savedKeys := <-before
	if savedKeys == 0 {
		t.Fatal("nothing saved")
	}

	// Restore into a fresh engine on a different node whose arc does NOT
	// cover everything; reconcile must re-route what it no longer owns.
	p2 := nw.Peers[1]
	p2.Node.Invoke(func() { done <- p2.Engine.LoadState(&buf) })
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	moved := make(chan int, 1)
	p2.Node.Invoke(func() { moved <- p2.Engine.ReconcileOwnership() })
	reRouted := <-moved
	nw.Quiesce()

	// Every item must now be exactly at its oracle owner... p1 still has
	// originals, so check p2 holds only owned keys and re-routed the rest.
	check := make(chan bool, 1)
	p2.Node.Invoke(func() {
		ok := true
		st := p2.Engine.LocalStore()
		st.ScanSpan(sfc.Interval{Lo: 0, Hi: ^uint64(0)}, func(k uint64, _ squid.Element) {
			if !p2.Node.Owns(chord.ID(k)) {
				ok = false
			}
		})
		check <- ok
	})
	if !<-check {
		t.Error("reconcile left foreign keys in place")
	}
	if reRouted == 0 {
		t.Error("expected some keys to be re-routed")
	}
}

// TestLoadStateSetsKeysGauge: a restored store shows in the keys gauge.
func TestLoadStateSetsKeysGauge(t *testing.T) {
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	img := squid.NewStore(chord.Space{Bits: space.IndexBits()})
	for i := 0; i < 50; i++ {
		img.Add(uint64(i)<<20, squid.Element{Values: []string{fmt.Sprintf("w%02d", i), "x"}, Data: fmt.Sprintf("d%d", i)})
	}
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	nw, err := sim.Build(sim.Config{Nodes: 2, Space: space, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := nw.Peers[0]
	var keys int
	onPeer(p, func() {
		err = p.Engine.LoadState(&buf)
		keys = p.Engine.LocalStore().Keys()
	})
	if err != nil {
		t.Fatal(err)
	}
	gauge := nw.Telemetry.GaugeVec("squid_store_keys_held", "", "node").With(strconv.FormatUint(uint64(p.ID()), 16))
	if keys != 50 || gauge.Value() != int64(keys) {
		t.Fatalf("after LoadState: %d keys stored, gauge %d; want 50 and 50", keys, gauge.Value())
	}
}
