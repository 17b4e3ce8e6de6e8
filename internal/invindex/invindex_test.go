package invindex

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"squid/internal/chord"
	"squid/internal/squid"
	"squid/internal/transport"
)

func TestHashWordStable(t *testing.T) {
	sp := chord.MustSpace(32)
	if HashWord(sp, "computer") != HashWord(sp, "computer") {
		t.Error("hash not stable")
	}
	if HashWord(sp, "computer") == HashWord(sp, "network") {
		t.Error("suspicious collision")
	}
	if uint64(HashWord(sp, "x")) > sp.Mask() {
		t.Error("hash outside space")
	}
}

func TestIntersect(t *testing.T) {
	e := func(id string) squid.Element { return squid.Element{Data: id} }
	byWord := map[string][]squid.Element{
		"a": {e("1"), e("2"), e("3")},
		"b": {e("2"), e("3"), e("4")},
		"c": {e("3"), e("2")},
	}
	got := Intersect(byWord)
	var ids []string
	for _, m := range got {
		ids = append(ids, m.Data)
	}
	sort.Strings(ids)
	if !reflect.DeepEqual(ids, []string{"2", "3"}) {
		t.Errorf("intersect = %v", ids)
	}
	if Intersect(nil) != nil {
		t.Error("empty intersect")
	}
	// Duplicate postings within one list must not double count.
	dup := map[string][]squid.Element{
		"a": {e("1"), e("1")},
		"b": {e("2")},
	}
	if got := Intersect(dup); len(got) != 0 {
		t.Errorf("dup intersect = %v", got)
	}
}

func TestPublishAndQuery(t *testing.T) {
	nw, err := BuildNetwork(32, 25, 7)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Size() != 25 {
		t.Fatalf("size = %d", nw.Size())
	}
	both, onlyA := 0, 0
	for i := 0; i < 120; i++ {
		var vals []string
		switch i % 3 {
		case 0:
			vals = []string{"computer", "network"}
			both++
		case 1:
			vals = []string{"computer", "storage"}
			onlyA++
		default:
			vals = []string{"grid", "peer"}
		}
		nw.Publish(i, squid.Element{Values: vals, Data: fmt.Sprintf("d%d", i)})
	}
	nw.Quiesce()

	res := nw.Query(0, []string{"computer", "network"})
	if len(res.Matches) != both {
		t.Errorf("conjunctive query found %d, want %d", len(res.Matches), both)
	}
	if res.Messages == 0 {
		t.Error("no messages counted")
	}

	resA := nw.Query(3, []string{"computer"})
	if len(resA.Matches) != both+onlyA {
		t.Errorf("single keyword found %d, want %d", len(resA.Matches), both+onlyA)
	}

	none := nw.Query(1, []string{"computer", "zebra"})
	if len(none.Matches) != 0 {
		t.Errorf("impossible conjunction found %d", len(none.Matches))
	}

	empty := nw.Query(2, nil)
	if len(empty.Matches) != 0 {
		t.Errorf("empty query found %d", len(empty.Matches))
	}

	// Storage blowup: every element was posted once per keyword.
	if got := nw.TotalPostings(); got != 240 {
		t.Errorf("total postings = %d, want 240", got)
	}
}

// TestQueryCountsPostingsReplies: the owner answers each word with one
// postingsMsg sent bare, and the query's message count must include it. On
// a one-peer ring every lookup resolves locally without a routed hop, so
// the count is exactly the postings replies: one per distinct word.
func TestQueryCountsPostingsReplies(t *testing.T) {
	nw, err := BuildNetwork(32, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	nw.Publish(0, squid.Element{Values: []string{"computer", "network"}, Data: "d"})
	nw.Quiesce()
	res := nw.Query(0, []string{"computer", "network", "computer"})
	if len(res.Matches) != 1 {
		t.Fatalf("found %d matches, want 1", len(res.Matches))
	}
	if res.Messages != 2 {
		t.Errorf("messages = %d, want 2 postings replies", res.Messages)
	}
}

func TestQueryCostScalesWithPostings(t *testing.T) {
	nw, err := BuildNetwork(32, 25, 9)
	if err != nil {
		t.Fatal(err)
	}
	// A popular word's postings travel in full even when the conjunction
	// is tiny — the bandwidth defect vs Squid.
	for i := 0; i < 300; i++ {
		nw.Publish(i, squid.Element{Values: []string{"popular", fmt.Sprintf("rare%d", i)}, Data: fmt.Sprintf("d%d", i)})
	}
	nw.Quiesce()
	res := nw.Query(0, []string{"popular", "rare7"})
	if len(res.Matches) != 1 {
		t.Fatalf("conjunction found %d", len(res.Matches))
	}
}

// TestBuildNetworkReplays pins the address table: the node whose
// identifier is drawn k-th from the seed listens as ivk, so two builds with
// one seed agree on every address.
func TestBuildNetworkReplays(t *testing.T) {
	const bits, n, seed = 32, 25, 7
	space, err := chord.NewSpace(bits)
	if err != nil {
		t.Fatal(err)
	}
	var want []chord.ID
	seen := map[chord.ID]bool{}
	for rng := newRand(seed); len(want) < n; {
		if id := chord.ID(rng.Uint64() & space.Mask()); !seen[id] {
			seen[id] = true
			want = append(want, id)
		}
	}
	for build := 0; build < 2; build++ {
		nw, err := BuildNetwork(bits, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		got := map[transport.Addr]chord.ID{}
		for _, node := range nw.nodes {
			got[node.Self().Addr] = node.Self().ID
		}
		for k, id := range want {
			addr := transport.Addr(fmt.Sprintf("iv%d", k))
			if got[addr] != id {
				t.Fatalf("build %d: %s has ID %x, want the %d-th draw %x", build, addr, uint64(got[addr]), k, uint64(id))
			}
		}
	}
}
