package squid_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"squid/internal/chord"
	"squid/internal/dessim"
	"squid/internal/keyspace"
	"squid/internal/sfc"
	"squid/internal/sim"
	"squid/internal/squid"
	"squid/internal/transport"
)

var testVocab = []string{
	"computer", "computation", "company", "compiler", "network", "net",
	"node", "data", "database", "storage", "system", "grid", "peer",
	"discovery", "index", "query", "curve", "hilbert", "chord", "cost",
}

func buildNetwork(t testing.TB, nodes, elems int, opts squid.Options) *sim.Network {
	t.Helper()
	nw := onGoroutines(t, sim.Config{Nodes: nodes, Space: schedSpace(t), Seed: 42, Engine: opts})
	preloadDocs(t, nw, elems)
	return nw
}

// preloadDocs stores elems documents, each of two random test words, at
// their owners.
func preloadDocs(t testing.TB, nw *sim.Network, elems int) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	batch := make([]squid.Element, 0, elems)
	for i := 0; i < elems; i++ {
		batch = append(batch, squid.Element{
			Values: []string{testVocab[rng.Intn(len(testVocab))], testVocab[rng.Intn(len(testVocab))]},
			Data:   fmt.Sprintf("doc%d", i),
		})
	}
	if err := nw.Preload(batch); err != nil {
		t.Fatal(err)
	}
}

// sortedData canonicalizes a result set for comparison.
func sortedData(elems []squid.Element) []string {
	out := make([]string, len(elems))
	for i, e := range elems {
		out[i] = e.Data
	}
	sort.Strings(out)
	return out
}

func equalSets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQueryCompleteness is the paper's central guarantee: every stored
// element matching a query is found — across exact, prefix, wildcard and
// range queries, initiated from arbitrary peers.
func TestQueryCompleteness(t *testing.T) {
	nw := buildNetwork(t, 40, 3000, squid.Options{})
	queries := []string{
		"(computer, network)",
		"(computer, *)",
		"(*, network)",
		"(comp*, *)",
		"(comp*, net*)",
		"(c-d, *)",
		"(data*, d*)",
		"(*, *)",
		"(zzz, *)",      // no matches
		"(n*, comp*)",   // both partial
		"(net, *)",      // exact short word
		"(grid, gr*)",   // mixed
		"(co-cz, da-e)", // word ranges
	}
	for qi, qs := range queries {
		q := keyspace.MustParse(qs)
		want := sortedData(nw.BruteForceMatches(q))
		res, qm := nw.Query(qi%len(nw.Peers), q)
		if res.Err != nil {
			t.Fatalf("%s: %v", qs, res.Err)
		}
		got := sortedData(res.Matches)
		if !equalSets(got, want) {
			t.Errorf("%s: got %d matches, brute force %d", qs, len(got), len(want))
			continue
		}
		if qm.Matches != len(want) {
			t.Errorf("%s: metrics counted %d matches, want %d", qs, qm.Matches, len(want))
		}
		// Data nodes are processing nodes.
		for id := range qm.DataNodes {
			if !qm.ProcessingNodes[id] {
				t.Errorf("%s: data node %x not marked processing", qs, uint64(id))
			}
		}
	}
}

func TestExactQueryIsSingleLookup(t *testing.T) {
	nw := buildNetwork(t, 30, 1000, squid.Options{})
	q := keyspace.MustParse("(computer, network)")
	res, qm := nw.Query(3, q)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	want := sortedData(nw.BruteForceMatches(q))
	if !equalSets(sortedData(res.Matches), want) {
		t.Errorf("exact query incomplete: %d vs %d", len(res.Matches), len(want))
	}
	if len(qm.ProcessingNodes) != 1 {
		t.Errorf("exact query touched %d processing nodes, want 1", len(qm.ProcessingNodes))
	}
	if qm.ClusterMessages != 0 {
		t.Errorf("exact query sent %d cluster messages, want 0", qm.ClusterMessages)
	}
}

func TestPublishThenQuery(t *testing.T) {
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := sim.Build(sim.Config{Nodes: 20, Space: space, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		elem := squid.Element{
			Values: []string{testVocab[i%len(testVocab)], testVocab[(i*3)%len(testVocab)]},
			Data:   fmt.Sprintf("pub%d", i),
		}
		if err := nw.Publish(i%len(nw.Peers), elem); err != nil {
			t.Fatal(err)
		}
	}
	nw.Quiesce()
	res, _ := nw.Query(0, keyspace.MustParse("(*, *)"))
	if len(res.Matches) != 50 {
		t.Errorf("published 50, wildcard query found %d", len(res.Matches))
	}
	// Every element must be stored at its oracle owner.
	for i := 0; i < 50; i++ {
		elem := squid.Element{
			Values: []string{testVocab[i%len(testVocab)], testVocab[(i*3)%len(testVocab)]},
		}
		idx, err := space.Index(elem.Values)
		if err != nil {
			t.Fatal(err)
		}
		owner := nw.SuccessorOf(idx)
		found := false
		done := make(chan struct{})
		owner.Node.Invoke(func() {
			for _, e := range owner.Engine.LocalStore().At(idx) {
				_ = e
				found = true
			}
			close(done)
		})
		<-done
		if !found {
			t.Errorf("element %d not at oracle owner", i)
		}
	}
}

func TestAggregationReducesMessages(t *testing.T) {
	withAgg := buildNetwork(t, 60, 4000, squid.Options{})
	noAgg := buildNetwork(t, 60, 4000, squid.Options{DisableAggregation: true})

	q := keyspace.MustParse("(comp*, *)")
	resA, qmA := withAgg.Query(0, q)
	resN, qmN := noAgg.Query(0, q)
	if resA.Err != nil || resN.Err != nil {
		t.Fatal(resA.Err, resN.Err)
	}
	if !equalSets(sortedData(resA.Matches), sortedData(resN.Matches)) {
		t.Fatalf("aggregation changed results: %d vs %d", len(resA.Matches), len(resN.Matches))
	}
	if len(resA.Matches) == 0 {
		t.Fatal("query should match something")
	}
	// Identical data and ring (same seeds) — aggregation must not increase
	// the number of sub-query payload messages.
	aggPayload := qmA.ClusterMessages
	noPayload := qmN.ClusterMessages + qmN.RouteMessages // blind-routed clusters travel as RouteMsg hops
	if aggPayload >= noPayload {
		t.Errorf("aggregation did not reduce payload messages: %d vs %d", aggPayload, noPayload)
	}
	if len(qmA.ProcessingNodes) == 0 || len(qmN.ProcessingNodes) == 0 {
		t.Error("processing node sets empty")
	}
}

func TestQueryMetricsShape(t *testing.T) {
	nw := buildNetwork(t, 50, 5000, squid.Options{})
	res, qm := nw.Query(7, keyspace.MustParse("(d*, *)"))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("expected matches")
	}
	n := len(nw.Peers)
	if p := len(qm.ProcessingNodes); p == 0 || p >= n {
		t.Errorf("processing nodes = %d of %d", p, n)
	}
	if d := len(qm.DataNodes); d == 0 || d > len(qm.ProcessingNodes) {
		t.Errorf("data nodes = %d, processing = %d", d, len(qm.ProcessingNodes))
	}
	if qm.Messages() == 0 {
		t.Error("no messages counted")
	}
	if qm.TotalTransmissions() < qm.Messages() {
		t.Error("total transmissions < forward messages")
	}
}

func TestQueryErrors(t *testing.T) {
	nw := buildNetwork(t, 10, 100, squid.Options{})
	p := nw.Peers[0]
	// Over-long query errors.
	resCh := make(chan squid.Result, 1)
	p.Node.Invoke(func() {
		p.Engine.Query(keyspace.MustParse("(a, b, c)"), func(r squid.Result) { resCh <- r })
	})
	if r := <-resCh; r.Err == nil {
		t.Error("over-long query should error")
	}
	// Unencodable characters (within the axis' discriminated slots) error.
	p.Node.Invoke(func() {
		p.Engine.Query(keyspace.Query{keyspace.Exact("b_d")}, func(r squid.Result) { resCh <- r })
	})
	if r := <-resCh; r.Err == nil {
		t.Error("unencodable query should error")
	}
}

func TestQueryAfterChurn(t *testing.T) {
	nw := buildNetwork(t, 25, 2000, squid.Options{})
	before := nw.TotalKeys()

	// Protocol-join five new peers and remove three existing ones.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 5; i++ {
		id := rng.Uint64() & ((1 << 32) - 1)
		if _, err := nw.AddPeer(chord.ID(id)); err != nil {
			t.Fatalf("add peer: %v", err)
		}
	}
	for i := 0; i < 3; i++ {
		nw.RemovePeer(rng.Intn(len(nw.Peers)))
	}
	nw.StabilizeAll(3)

	if after := nw.TotalKeys(); after != before {
		t.Errorf("churn lost keys: %d -> %d", before, after)
	}
	if err := nw.VerifyConsistent(); err != nil {
		t.Fatalf("ring inconsistent after churn: %v", err)
	}
	for _, qs := range []string{"(comp*, *)", "(*, net*)", "(data, *)"} {
		q := keyspace.MustParse(qs)
		want := sortedData(nw.BruteForceMatches(q))
		res, _ := nw.Query(0, q)
		if res.Err != nil {
			t.Fatalf("%s: %v", qs, res.Err)
		}
		if !equalSets(sortedData(res.Matches), want) {
			t.Errorf("%s after churn: %d matches, want %d", qs, len(res.Matches), len(want))
		}
	}
}

func TestSingleNodeNetwork(t *testing.T) {
	nw := buildNetwork(t, 1, 200, squid.Options{})
	q := keyspace.MustParse("(comp*, *)")
	want := sortedData(nw.BruteForceMatches(q))
	res, qm := nw.Query(0, q)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !equalSets(sortedData(res.Matches), want) {
		t.Errorf("singleton: %d matches, want %d", len(res.Matches), len(want))
	}
	if len(qm.ProcessingNodes) > 1 {
		t.Errorf("singleton processing nodes = %d", len(qm.ProcessingNodes))
	}
}

// TestProcessingScalesSublinearly reproduces the qualitative claim of
// Fig. 9: processing nodes are a small fraction of the network and data
// nodes are close to processing nodes.
func TestProcessingScalesSublinearly(t *testing.T) {
	nw := buildNetwork(t, 120, 8000, squid.Options{})
	res, qm := nw.Query(0, keyspace.MustParse("(comp*, *)"))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	p, d := len(qm.ProcessingNodes), len(qm.DataNodes)
	if p >= len(nw.Peers)/2 {
		t.Errorf("processing nodes %d should be well below network size %d", p, len(nw.Peers))
	}
	if d == 0 {
		t.Error("no data nodes")
	}
	if p < d {
		t.Errorf("processing %d < data %d", p, d)
	}
}

// replySink records the application payloads a bare chord node receives.
type replySink struct {
	chord.NopApp
	got []any
}

func (s *replySink) Deliver(_ transport.Addr, _ chord.ID, payload any) {
	s.got = append(s.got, payload)
}

// nodeStarter returns an event core and a function that starts chord
// nodes on it over instant links, in a ring of the given index bits.
func nodeStarter(t *testing.T, bits int) (*dessim.Core, func(transport.Addr, chord.ID, chord.App) *chord.Node) {
	core := dessim.NewCore()
	net := dessim.NewNet(core, dessim.NetConfig{})
	cfg := chord.Config{Space: chord.Space{Bits: bits}, Clock: core.Clock()}
	return core, func(name transport.Addr, id chord.ID, app chord.App) *chord.Node {
		n := chord.NewNode(cfg, id, app)
		ep, err := net.Listen(name, n)
		if err != nil {
			t.Fatal(err)
		}
		n.Start(ep)
		return n
	}
}

// TestUnevaluableClusterQueryReportsIncomplete sends a remote hop a
// ClusterQueryMsg whose query has more terms than the space has
// dimensions. The hop cannot evaluate it, so its reply must say the
// subtree is incomplete: a complete-looking empty reply would let the
// root return a short answer with a nil error instead of
// ErrPartialResult.
func TestUnevaluableClusterQueryReportsIncomplete(t *testing.T) {
	space, err := keyspace.NewWordSpace(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	core, start := nodeStarter(t, space.IndexBits())
	sink := &replySink{}
	root := start("root", 10, sink)
	eng := squid.New(space, squid.FromOptions(squid.Options{Workers: -1, Clock: core.Clock()}))
	hop := start("hop", 200, eng)
	eng.Attach(hop)

	q := keyspace.Query{keyspace.Prefix("comp"), keyspace.Wildcard(), keyspace.Exact("grid")}
	if !root.SendApp(hop.Self().Addr, &squid.ClusterQueryMsg{
		QID: 1, Query: q, Clusters: []sfc.Refined{{}},
		ReplyTo: root.Self().Addr, Token: 7,
	}) {
		t.Fatal("SendApp refused")
	}
	core.Run()
	if len(sink.got) != 1 {
		t.Fatalf("root received %d replies, want 1: %#v", len(sink.got), sink.got)
	}
	r, ok := sink.got[0].(*squid.SubResultMsg)
	if !ok || r.QID != 1 || r.Token != 7 {
		t.Fatalf("reply %#v, want the SubResultMsg for token 7", sink.got[0])
	}
	if !r.Incomplete {
		t.Errorf("a hop that cannot evaluate its query replied complete: %#v", r)
	}
}

// TestIncompleteChildEntersCut streams a query over a two-member ring
// whose second member cannot evaluate it (its space has one dimension,
// the query two), so the root's child there reports Incomplete. The
// stream must end partial with its cursor inside that member's arc, where
// the lost child began: an exhausted cursor would let a resumed query skip
// what was lost, and one at the start would re-deliver what was not.
func TestIncompleteChildEntersCut(t *testing.T) {
	rootSpace, err := keyspace.NewWordSpace(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	hopSpace, err := keyspace.NewWordSpace(1, 16)
	if err != nil {
		t.Fatal(err)
	}
	core, start := nodeStarter(t, rootSpace.IndexBits())
	opts := squid.FromOptions(squid.Options{Workers: -1, Clock: core.Clock()})
	eng, hopEng := squid.New(rootSpace, opts), squid.New(hopSpace, opts)
	root, hop := start("root", 10, eng), start("hop", 200, hopEng)
	eng.Attach(root)
	hopEng.Attach(hop)
	root.InstallRing(hop.Self(), []chord.NodeRef{hop.Self()}, nil)
	hop.InstallRing(root.Self(), []chord.NodeRef{root.Self()}, nil)

	var done []squid.StreamEvent
	if _, err := eng.QueryStreamFunc(context.Background(), keyspace.MustParse("(*, *)"), func(ev squid.StreamEvent) {
		if ev.Done {
			done = append(done, ev)
		}
	}); err != nil {
		t.Fatal(err)
	}
	core.Run()
	if len(done) != 1 || done[0].Err != squid.ErrPartialResult {
		t.Fatalf("stream ended %d times (%v), want once with ErrPartialResult", len(done), done)
	}
	if cur := done[0].Cursor; cur.Exhausted() || squid.CursorPos(cur) <= 10 || squid.CursorPos(cur) > 200 {
		t.Errorf("cursor at %d (exhausted %v), want one in the lost member's arc (10, 200]", squid.CursorPos(cur), cur.Exhausted())
	}
}
