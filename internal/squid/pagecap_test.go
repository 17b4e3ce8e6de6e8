package squid

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"squid/internal/keyspace"
	"squid/internal/telemetry"
)

// TestCapReplyExact checks the report cap against the root it feeds: for
// random batches with runs of equal curve indices and a random page size
// and cursor, a limited root delivers the same page and takes the same
// resume cursor from reports capped at the cap streamRoot sets as from the
// uncapped ones, whether each batch is capped in its own report or both
// are capped together, one report linked behind the other; and that two
// reports delivered one after the other give the page and cursor of one.
func TestCapReplyExact(t *testing.T) {
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(space, Options{Workers: -1})
	e.met = newEngineMetrics(telemetry.NewRegistry(nil), 1)
	q := keyspace.MustParse("(*, *)")
	words := []string{"computer", "network", "grid", "data"}
	index := func(m Element) uint64 {
		idx, err := space.Index(m.Values)
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	rng := rand.New(rand.NewSource(5))
	shortened := 0
	for trial := 0; trial < 3000; trial++ {
		batch := make([]Element, rng.Intn(30))
		for i := range batch {
			batch[i] = Element{
				Values: []string{words[rng.Intn(len(words))], words[rng.Intn(len(words))]},
				Data:   fmt.Sprintf("d%d", i),
			}
		}
		cfg := queryConfig{limit: 1 + rng.Intn(6)}
		if len(batch) > 0 && rng.Intn(3) > 0 {
			cfg.afterPos, cfg.afterSkip, cfg.hasPos = index(batch[rng.Intn(len(batch))]), rng.Intn(4), true
			if rng.Intn(4) == 0 {
				cfg.afterPos++ // a position no element holds
			}
		}
		// One or two batches, as from two children, in curve order: split at
		// a curve index, since one index is scanned by one node in one
		// batch, or, on a page with no cursor, anywhere, so that a run of
		// one index can straddle two deliveries.
		sorted := slices.Clone(batch)
		slices.SortStableFunc(sorted, func(a, b Element) int { return cmp.Compare(index(a), index(b)) })
		cut := len(sorted)
		switch {
		case len(batch) == 0:
		case !cfg.hasPos && rng.Intn(2) == 0:
			cut = rng.Intn(len(sorted) + 1)
		case rng.Intn(2) == 0:
			split := index(batch[rng.Intn(len(batch))])
			cut = slices.IndexFunc(sorted, func(m Element) bool { return index(m) >= split })
		}
		lo, hi := sorted[:cut:cut], sorted[cut:]
		report := func(batches ...[]Element) *SubResultMsg {
			var head *SubResultMsg
			for _, b := range batches {
				head = head.link(&SubResultMsg{Matches: b})
			}
			return head
		}
		capped := func(r *SubResultMsg) *SubResultMsg {
			c := streamRoot(0, q, nil, cfg)
			e.capReport(r, c.keep, c.from)
			return r
		}
		page := func(reports ...*SubResultMsg) ([]string, Cursor) {
			var got []string
			var cur Cursor
			st := streamRoot(QueryID(trial+1), q, funcSink(func(ev StreamEvent) {
				for _, m := range ev.Matches {
					got = append(got, m.Data)
				}
				if ev.Done {
					cur = ev.Cursor
				}
			}), cfg)
			st.dispatched, st.sent = true, len(reports)
			for _, r := range reports {
				st.done++
				e.rootDeliver(&st, r)
				e.settle(&st)
			}
			return got, cur
		}
		capLo, capHi := capped(report(lo)), capped(report(hi))
		both := capped(report(lo, hi))
		n := 0
		for b := range both.Batches() {
			n += len(b)
		}
		if n < len(batch) {
			shortened++
		}
		var pages [2][]string
		var cursors [2]Cursor
		for i, c := range []struct {
			name          string
			reports, want []*SubResultMsg
		}{
			{"each", []*SubResultMsg{capLo, capHi}, []*SubResultMsg{report(lo), report(hi)}},
			{"linked", []*SubResultMsg{both}, []*SubResultMsg{report(lo, hi)}},
		} {
			wantPage, wantCur := page(c.want...)
			gotPage, gotCur := page(c.reports...)
			if !slices.Equal(gotPage, wantPage) || gotCur != wantCur {
				t.Fatalf("trial %d (limit %d, cursor %v at %d skip %d): reports capped %s give page %v, uncapped %v; cursors equal: %v",
					trial, cfg.limit, cfg.hasPos, cfg.afterPos, cfg.afterSkip, c.name, gotPage, wantPage, gotCur == wantCur)
			}
			pages[i], cursors[i] = wantPage, wantCur
		}
		// Delivered in two steps, the batches give the page and the cursor
		// one delivery of both gives: a run split across them counts whole.
		// Only while the first leaves the limit unmet: page registers no
		// outstanding child whose position a cut there would take.
		if len(lo) < cfg.limit && !cfg.hasPos && (!slices.Equal(pages[0], pages[1]) || cursors[0] != cursors[1]) {
			t.Fatalf("trial %d (limit %d, cursor %v at %d skip %d): two reports give page %v, one report %v; cursors equal: %v",
				trial, cfg.limit, cfg.hasPos, cfg.afterPos, cfg.afterSkip, pages[0], pages[1], cursors[0] == cursors[1])
		}
	}
	if shortened == 0 {
		t.Fatal("no batch was capped: the property was never exercised")
	}
}
