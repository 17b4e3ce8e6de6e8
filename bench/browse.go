package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"squid/internal/sim"
	"squid/internal/squid"
	"squid/internal/workload"
)

// The browse/write workload. Each closed-loop client runs its own seeded
// operation sequence: of every ten operations eight are browse pages, one
// publishes a new element and one unpublishes the client's oldest element
// once it has lived spec.lifetime operations, so the corpus size is
// stationary and cached clusters keep being dirtied.
//
// Publish and Unpublish are fire-and-forget in the program (no ack exists
// in the protocol), so the harness's model of what is stored has three
// states per written element: in flight (may or may not be visible),
// settled (publish returned settleWindow ago, Unpublish not yet called:
// must be visible) and withdrawn (may or may not be visible). Preloaded
// elements are never withdrawn and must always be visible.

// written is the model's record of one published element.
type written struct {
	elem      squid.Element
	index     uint64
	published time.Time // when Publish returned
}

// model is the harness's own record of what the clients published: every
// element ever published by payload name, and the ones not yet withdrawn.
type model struct {
	mu     sync.RWMutex
	byData map[string]*written
	live   map[*written]struct{}
}

func (m *model) add(w *written) {
	m.mu.Lock()
	m.byData[w.elem.Data] = w
	m.live[w] = struct{}{}
	m.mu.Unlock()
}

func (m *model) withdraw(w *written) {
	m.mu.Lock()
	delete(m.live, w)
	m.mu.Unlock()
}

// browseDriver runs the clients; their state lives across rounds.
type browseDriver struct {
	ring    *ring
	model   *model
	clients []*browser
	// matchSet[qi] is pool query qi's preloaded matches as a set.
	matchSet []map[int32]struct{}
	hook     func(client int, qi int, start time.Time, a answer) // traced pass
}

// browser is one client's state.
type browser struct {
	d     *browseDriver
	id    int
	zipf  *rand.Zipf
	words *workload.Sampler
	opN   int

	// current browse session
	qi      int
	cursor  squid.Cursor
	pages   int
	seen    map[string]struct{} // Data of every element delivered this session
	base    []int32             // preloaded elements delivered this session
	prevMax uint64              // highest curve index delivered before this page
	hasPrev bool

	live   []*written // FIFO, oldest first
	bornAt []int      // opN at which live[i] was published
	serial int
}

func newBrowseDriver(r *ring) *browseDriver {
	in := r.in
	d := &browseDriver{ring: r, model: &model{byData: make(map[string]*written), live: make(map[*written]struct{})}}
	d.matchSet = make([]map[int32]struct{}, len(in.pool))
	for qi, ex := range in.expect {
		set := make(map[int32]struct{}, len(ex.matches))
		for _, pos := range ex.matches {
			set[pos] = struct{}{}
		}
		d.matchSet[qi] = set
	}
	for c := 0; c < in.spec.clients; c++ {
		// Which query a session browses is part of the frozen query log;
		// what the client writes is data, and drawn from the seed.
		rng := rand.New(rand.NewSource(frozenSeed + 10 + int64(c)))
		d.clients = append(d.clients, &browser{
			d: d, id: c,
			// math/rand's Zipf needs s > 1; 1.01 is the nominal Zipf(1.0).
			zipf:  rand.NewZipf(rng, 1.01, 1, uint64(len(in.pool)-1)),
			words: in.vocab.Sampler(in.seed + 20 + int64(c)),
			qi:    -1,
		})
	}
	return d
}

func (d *browseDriver) round(r int) ([]*tally, time.Duration) {
	sp := d.ring.in.spec
	tallies := make([]*tally, len(d.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for c, b := range d.clients {
		n := sp.roundOps / len(d.clients)
		t := &tally{lat: make([]time.Duration, 0, n), first: make([]time.Duration, 0, n)}
		tallies[c] = t
		wg.Add(1)
		go func(b *browser) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				b.step(t, r)
			}
		}(b)
	}
	wg.Wait()
	return tallies, time.Since(start)
}

// step issues the client's next operation.
func (b *browser) step(t *tally, round int) {
	sp := b.d.ring.in.spec
	via := b.d.ring.entry(b.opN*len(b.d.clients)+b.id, round)
	slot := b.opN % 10
	b.opN++
	switch {
	case slot == 8:
		b.publish(t, via)
	case slot == 9 && len(b.live) > 0 && b.opN-b.bornAt[0] >= sp.lifetime:
		b.unpublish(t, via)
	default:
		b.page(t, via)
	}
}

func (b *browser) publish(t *tally, via *sim.Peer) {
	in := b.d.ring.in
	values := make([]string, in.spec.dims)
	for i := range values {
		values[i] = b.words.Word()
	}
	w := &written{elem: squid.Element{Values: values, Data: fmt.Sprintf("w%d-%06d", b.id, b.serial)}}
	b.serial++
	idx, err := in.space.Index(values)
	if err != nil {
		t.ops++
		t.fail(err)
		return
	}
	w.index = idx
	start := time.Now()
	var perr error
	if err := call(via, func() { perr = via.Engine.Publish(w.elem) }); err != nil {
		perr = err
	}
	w.published = time.Now()
	t.ops++
	t.pubLat = append(t.pubLat, w.published.Sub(start))
	if perr != nil {
		t.fail(fmt.Errorf("publish %v: %w", values, perr))
		return
	}
	b.d.model.add(w)
	b.live = append(b.live, w)
	b.bornAt = append(b.bornAt, b.opN)
}

func (b *browser) unpublish(t *tally, via *sim.Peer) {
	w := b.live[0]
	b.live, b.bornAt = b.live[1:], b.bornAt[1:]
	b.d.model.withdraw(w) // before the call: from here on it may or may not be visible
	var uerr error
	if err := call(via, func() { uerr = via.Engine.Unpublish(w.elem) }); err != nil {
		uerr = err
	}
	t.ops++
	if uerr != nil {
		t.fail(fmt.Errorf("unpublish %v: %w", w.elem.Values, uerr))
	}
}

// page issues one browse page: a new session's first page, or the next page
// of the session in progress.
func (b *browser) page(t *tally, via *sim.Peer) {
	sp := b.d.ring.in.spec
	if b.qi < 0 {
		b.qi = int(b.zipf.Uint64())
		b.cursor, b.pages, b.hasPrev = "", 0, false
		b.seen = make(map[string]struct{}, sp.pageLimit*sp.maxPages)
		b.base = b.base[:0]
	}
	opts := []squid.QueryOption{squid.Limit(sp.pageLimit)}
	if b.cursor != "" {
		opts = append(opts, squid.WithCursor(b.cursor))
	}
	var got []squid.Element
	start := time.Now()
	a := stream(via, b.d.ring.in.pool[b.qi], func(batch []squid.Element) { got = append(got, batch...) }, opts...)
	t.query(a)
	if err := b.checkPage(got, a, start); err != nil {
		t.fail(fmt.Errorf("page %d of %s: %w", b.pages+1, b.d.ring.in.pool[b.qi], err))
	}
	if b.d.hook != nil {
		b.d.hook(b.id, b.qi, start, a)
	}
	b.pages++
	b.cursor = a.cursor
	if a.err != nil || b.pages >= sp.maxPages || a.cursor.Exhausted() {
		b.qi = -1
	}
}

// checkPage holds one page against the oracle and the model:
//   - at most Limit elements, and fewer only when the stream is exhausted;
//   - every element is a true match that was preloaded or published, and
//     none came earlier in the session;
//   - limited streams deliver in curve order, so every preloaded or settled
//     match below the page's highest curve index (every match at all, once
//     exhausted) must have been delivered by now.
func (b *browser) checkPage(got []squid.Element, a answer, start time.Time) error {
	in := b.d.ring.in
	sp := in.spec
	q := in.pool[b.qi]
	if a.err != nil {
		return a.err
	}
	exhausted := a.cursor.Exhausted()
	if len(got) > sp.pageLimit {
		return fmt.Errorf("%d elements for Limit(%d)", len(got), sp.pageLimit)
	}
	if len(got) < sp.pageLimit && !exhausted {
		return fmt.Errorf("%d elements for Limit(%d) but the cursor is not exhausted", len(got), sp.pageLimit)
	}
	var pageMax uint64
	delivered := make(map[string]struct{}, len(got))
	for _, e := range got {
		if _, dup := b.seen[e.Data]; dup {
			return fmt.Errorf("element %s delivered twice in one session", e.Data)
		}
		b.seen[e.Data] = struct{}{}
		delivered[e.Data] = struct{}{}
		var idx uint64
		if pos, ok := in.corpusPos(e); ok {
			if _, match := b.d.matchSet[b.qi][pos]; !match {
				return fmt.Errorf("element %s does not match", e.Data)
			}
			b.base = append(b.base, pos)
			idx = in.index[pos]
		} else {
			b.d.model.mu.RLock()
			w := b.d.model.byData[e.Data]
			b.d.model.mu.RUnlock()
			if w == nil || !sameValues(w.elem.Values, e.Values) {
				return fmt.Errorf("element %s %v was never published", e.Data, e.Values)
			}
			if !in.space.Matches(q, e.Values) {
				return fmt.Errorf("element %s does not match", e.Data)
			}
			idx = w.index
		}
		if idx > pageMax {
			pageMax = idx
		}
	}
	if len(got) == 0 && !exhausted {
		return nil
	}
	// Preloaded matches strictly below the frontier.
	ex := in.expect[b.qi]
	below := len(ex.matches)
	if !exhausted {
		below = sort.Search(len(ex.matches), func(i int) bool { return in.index[ex.matches[i]] >= pageMax })
	}
	have := 0
	for _, pos := range b.base {
		if exhausted || in.index[pos] < pageMax {
			have++
		}
	}
	if have != below {
		return fmt.Errorf("%d preloaded matches delivered below the frontier, oracle has %d", have, below)
	}
	// Settled published matches between the previous frontier and this one.
	var missing string
	b.d.model.mu.RLock()
	for w := range b.d.model.live {
		if w.published.Add(settleWindow).After(start) {
			continue // still in flight when the page began
		}
		if b.hasPrev && w.index <= b.prevMax {
			continue
		}
		if !exhausted && w.index >= pageMax {
			continue
		}
		if _, ok := delivered[w.elem.Data]; !ok && in.space.Matches(q, w.elem.Values) {
			missing = w.elem.Data
			break
		}
	}
	b.d.model.mu.RUnlock()
	if missing != "" {
		return fmt.Errorf("settled element %s is missing", missing)
	}
	if len(got) > 0 {
		b.prevMax, b.hasPrev = pageMax, true
	}
	return nil
}

// corpusPos recognises a preloaded element and returns its corpus position.
func (in *inputs) corpusPos(e squid.Element) (int32, bool) {
	num, ok := strings.CutPrefix(e.Data, "elem-")
	if !ok {
		return 0, false
	}
	pos, err := strconv.Atoi(num)
	if err != nil || pos < 0 || pos >= len(in.corpus) || !sameValues(in.corpus[pos].Values, e.Values) {
		return 0, false
	}
	return int32(pos), true
}

func sameValues(a, b []string) bool {
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
