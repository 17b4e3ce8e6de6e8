package squid

import (
	"fmt"
	"sync"
	"testing"

	"squid/internal/chord"
	"squid/internal/keyspace"
	"squid/internal/sfc"
	"squid/internal/telemetry"
)

// scanFixture builds a small store over a 2-D word space holding every
// pair of a few words, and the arc of a one-member ring, which owns the
// whole index space.
func scanFixture(t *testing.T) (*keyspace.Space, *Store, arcView) {
	t.Helper()
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"compiler", "computer", "compute", "data", "network", "zebra"}
	store := NewStore(chord.Space{Bits: space.IndexBits()})
	for i, a := range words {
		for j, b := range words {
			el := Element{Values: []string{a, b}, Data: fmt.Sprintf("doc%d-%d", i, j)}
			idx, err := space.Index(el.Values)
			if err != nil {
				t.Fatal(err)
			}
			store.Add(idx, el)
		}
	}
	maxIdx := ^uint64(0)
	if b := space.IndexBits(); b < 64 {
		maxIdx = (uint64(1) << b) - 1
	}
	return space, store, arcView{maxIdx: maxIdx}
}

// TestRefineClustersCopiesOnce pins the scan's single copy: the matches
// refineClusters returns are exactly sized, do not share memory with the
// pooled scan buffer, and the buffer goes back to the pool cleared. A
// warmed call allocates only the returned slice.
func TestRefineClustersCopiesOnce(t *testing.T) {
	space, store, arc := scanFixture(t)
	var (
		scratch  sfc.Scratch
		frontier []sfc.Refined
	)
	refine := func(q keyspace.Query) func() []Element {
		region, err := space.Region(q)
		if err != nil {
			t.Fatal(err)
		}
		cls := sfc.CoarseClusters(space.Curve(), region, 4)
		return func() []Element {
			var matches []Element
			var remote []sfc.Refined
			matches, remote, _, frontier = refineClusters(store, space, arc, 1, cls, q, region, &scratch, frontier)
			if len(remote) != 0 {
				t.Fatalf("sole owner forwarded %d clusters", len(remote))
			}
			return matches
		}
	}
	comp := refine(keyspace.MustParse("(comp*, *)"))
	none := refine(keyspace.MustParse("(zzz*, *)"))

	matches := comp()
	if len(matches) != 18 || len(matches) != cap(matches) {
		t.Fatalf("got len %d cap %d, want 18 exactly sized", len(matches), cap(matches))
	}
	if got := none(); got != nil {
		t.Fatalf("empty scan returned %d matches, want nil", len(got))
	}
	want := append([]Element(nil), matches...)

	// Take back the buffer the scan used. The pool may hand out a fresh
	// one (sync.Pool is per-P, and drops puts at random under -race), so
	// rescan until the used one comes back.
	var buf *[]Element
	for i := 0; i < 100 && buf == nil; i++ {
		matches = comp()
		want = append(want[:0], matches...)
		b := scanBufs.Get().(*[]Element)
		if cap(*b) >= len(matches) {
			buf = b
		} else {
			scanBufs.Put(b)
		}
	}
	if buf == nil {
		t.Fatal("scan buffer never came back from the pool")
	}
	all := (*buf)[:cap(*buf)]
	for i, el := range all {
		if el.Values != nil || el.Data != "" {
			t.Fatalf("pooled buffer slot %d still holds %q", i, el.Data)
		}
	}
	for i := range all {
		all[i] = Element{Data: "clobbered"}
	}
	for i := range matches {
		if matches[i].Data != want[i].Data {
			t.Fatalf("match %d changed to %q when the scan buffer was reused", i, matches[i].Data)
		}
	}
	clear(all)
	scanBufs.Put(buf)

	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(50, func() { comp() }); n > 1 {
		t.Errorf("non-empty scan: %.1f allocs per call, want at most 1", n)
	}
	if n := testing.AllocsPerRun(50, func() { none() }); n > 0 {
		t.Errorf("empty scan: %.1f allocs per call, want 0", n)
	}
}

// TestResultCacheAdoptionNoAlias pins that a cached leaf result shared by
// two parents is never written: each parent links the cached report
// uncopied behind its own child reports, and each query root's collector
// adopts the cached batch as its first, clipped, so its next append
// reallocates instead of writing into spare capacity of the shared cache
// entry. The parents run on their own goroutines, as they do on a ring,
// so -race reports any shared write.
func TestResultCacheAdoptionNoAlias(t *testing.T) {
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	leaf := make([]Element, 2, 8) // spare capacity a careless append would write into
	leaf[0] = Element{Values: []string{"computer", "network"}, Data: "a"}
	leaf[1] = Element{Values: []string{"computer", "zebra"}, Data: "b"}
	rc := newResultCache(4)
	rc.put("leaf", nil, leaf)
	cached, ok := rc.get("leaf")
	if !ok {
		t.Fatal("cache entry missing")
	}

	linked := make([][]Element, 2)
	results := make([][]Element, 2)
	var wg sync.WaitGroup
	for p := range results {
		e := newEngine(space, Options{})
		e.met = newEngineMetrics(telemetry.NewRegistry(nil), uint64(p+1))
		// An inner subtree with two children outstanding and its dispatch
		// round still open, so neither report completes it. Each child
		// holds it.
		st := &subtree{qid: 1, parent: "up", sent: 2, holds: 2}
		e.children[1] = &childCall{st: st, token: 1}
		e.children[2] = &childCall{st: st, token: 2}
		// The query's root, a collector, with the inner subtree as its one
		// child.
		c := &collector{cb: func(Result) {}}
		c.root = streamRoot(1, nil, c, queryConfig{})
		c.root.sent, c.root.holds = 1, 1
		e.children[3] = &childCall{st: &c.root, token: 3}
		own := []Element{{Values: []string{"data", "data"}, Data: fmt.Sprintf("parent%d", p)}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.handleSubResult(&SubResultMsg{QID: 1, Token: 1, Matches: cached})
			e.handleSubResult(&SubResultMsg{QID: 1, Token: 2, Matches: own})
			for b := range st.reports.Batches() {
				linked[p] = append(linked[p], b...)
			}
			e.handleSubResult((&SubResultMsg{QID: 1, Token: 3}).link(st.reports))
			results[p] = c.matches
		}()
	}
	wg.Wait()

	for p := range results {
		want := []string{"a", "b", fmt.Sprintf("parent%d", p)}
		for _, got := range [][]Element{linked[p], results[p]} {
			if len(got) != len(want) {
				t.Fatalf("parent %d holds %d matches, want %d", p, len(got), len(want))
			}
			for i := range want {
				if got[i].Data != want[i] {
					t.Errorf("parent %d match %d = %q, want %q", p, i, got[i].Data, want[i])
				}
			}
		}
	}
	after, _ := rc.get("leaf")
	if len(after) != 2 || after[0].Data != "a" || after[1].Data != "b" {
		t.Fatalf("cache entry changed: %v", after)
	}
	for i, el := range after[:cap(after)][len(after):] {
		if el.Data != "" {
			t.Errorf("a parent's append wrote %q into the cache entry's spare slot %d", el.Data, i)
		}
	}
}
