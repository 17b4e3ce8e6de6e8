package dessim_test

import (
	"fmt"
	"sort"
	"testing"

	"squid/internal/dessim"
	"squid/internal/keyspace"
	"squid/internal/sim"
	"squid/internal/squid"
	"squid/internal/workload"
)

// TestCrossBackendEquivalence pins the property that makes the event core a
// drop-in backend: for the same seed, the goroutine and discrete-event
// simulators build the identical ring (same identifiers, same addresses),
// place the identical data, and give the identical answers — matches,
// message counts, Limit pages with their cursors, and keyword results — to
// the identical queries. Experiments validated at
// debuggable scale on one backend are then trustworthy at paper scale on
// the other.
func TestCrossBackendEquivalence(t *testing.T) {
	const (
		nodes = 30
		keys  = 1500
		seed  = 42
	)
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	goro, err := sim.Build(sim.Config{Nodes: nodes, Space: space, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	des, err := dessim.Build(dessim.Config{Nodes: nodes, Space: space, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}

	if len(goro.Peers) != len(des.Peers) {
		t.Fatalf("peer counts differ: %d vs %d", len(goro.Peers), len(des.Peers))
	}
	for i := range goro.Peers {
		if goro.Peers[i].ID() != des.Peers[i].ID() || goro.Peers[i].Addr() != des.Peers[i].Addr() {
			t.Fatalf("peer %d differs: %v@%s vs %v@%s", i,
				goro.Peers[i].ID(), goro.Peers[i].Addr(), des.Peers[i].ID(), des.Peers[i].Addr())
		}
	}

	vocab := workload.NewVocabulary(7, 300, 1.2)
	elems := workload.Elements(workload.KeyTuples(vocab, 8, keys, 2))
	if err := goro.Preload(elems); err != nil {
		t.Fatal(err)
	}
	if err := des.Preload(elems); err != nil {
		t.Fatal(err)
	}
	if g, d := fmt.Sprint(goro.LoadVector()), fmt.Sprint(des.LoadVector()); g != d {
		t.Fatalf("load vectors differ:\n goroutine %s\n event     %s", g, d)
	}

	gen := workload.NewQueryGen(vocab, 9, 2)
	queries := []keyspace.Query{
		gen.Q1(), gen.Q1(),
		gen.Q2(), gen.Q2(),
		gen.Q3Keyword(), gen.Q3Ranges(),
	}
	for qi, q := range queries {
		via := qi % nodes
		gRes, gQM := goro.Query(via, q)
		dRes, dQM := des.Query(via, q)
		if (gRes.Err == nil) != (dRes.Err == nil) {
			t.Fatalf("query %s: errors differ: %v vs %v", q, gRes.Err, dRes.Err)
		}
		if g, d := matchSet(gRes.Matches), matchSet(dRes.Matches); g != d {
			t.Errorf("query %s: matches differ:\n goroutine %s\n event     %s", q, g, d)
		}
		if gQM.Messages() != dQM.Messages() {
			t.Errorf("query %s: message counts differ: %d vs %d", q, gQM.Messages(), dQM.Messages())
		}
		if gQM.TotalTransmissions() != dQM.TotalTransmissions() {
			t.Errorf("query %s: transmissions differ: %d vs %d",
				q, gQM.TotalTransmissions(), dQM.TotalTransmissions())
		}
		if g, d := len(gQM.ProcessingNodes), len(dQM.ProcessingNodes); g != d {
			t.Errorf("query %s: processing-node counts differ: %d vs %d", q, g, d)
		}

		// A Limit(k) page delivers the k lowest curve positions, so its
		// matches and resume cursor are the same on either driver.
		gPage, _ := goro.QueryStream(via, q, squid.Limit(3))
		dPage, _ := des.QueryStream(via, q, squid.Limit(3))
		if (gPage.Err == nil) != (dPage.Err == nil) {
			t.Fatalf("stream %s: errors differ: %v vs %v", q, gPage.Err, dPage.Err)
		}
		if g, d := matchSet(gPage.Matches), matchSet(dPage.Matches); g != d {
			t.Errorf("stream %s: pages differ:\n goroutine %s\n event     %s", q, g, d)
		}
		if gPage.Cursor != dPage.Cursor {
			t.Errorf("stream %s: cursors differ", q)
		}
	}

	words := []string{vocab.Words[0]}
	gKw, dKw := goro.QueryKeywords(0, words), des.QueryKeywords(0, words)
	if gKw.Err != nil || dKw.Err != nil {
		t.Fatalf("keywords %v: errors %v vs %v", words, gKw.Err, dKw.Err)
	}
	if g, d := matchSet(gKw.Matches), matchSet(dKw.Matches); g != d {
		t.Errorf("keywords %v: matches differ:\n goroutine %s\n event     %s", words, g, d)
	}
}

// matchSet collapses matches to their sorted payload tags.
func matchSet(ms []squid.Element) string {
	tags := make([]string, len(ms))
	for i, m := range ms {
		tags[i] = m.Data
	}
	sort.Strings(tags)
	return fmt.Sprint(tags)
}
