// Package invindex implements the structured keyword-search baseline the
// paper positions itself against (related work [7, 18]: "structured
// keyword search systems extend the data lookup protocol with a
// distributed inverted index").
//
// Each keyword hashes to a home node that stores the postings list of
// every element containing that keyword. A conjunctive query fetches one
// postings list per keyword and intersects them at the initiator. Two
// structural costs follow, which the benchmarks quantify against Squid:
// every element is indexed once per keyword (k-fold storage and publish
// messages), and queries move whole postings lists (bandwidth scales with
// the most popular keyword, not the result). Partial keywords, wildcards
// and ranges are not supported at all — the gap Squid's SFC index fills.
// Nodes run on the event core's transport (dessim.Net), which passes
// messages as values, so the message types below have no wire codec.
package invindex

import (
	"fmt"
	"hash/fnv"
	"sort"

	"squid/internal/chord"
	"squid/internal/dessim"
	"squid/internal/sim"
	"squid/internal/squid"
	"squid/internal/transport"
)

// postMsg adds an element to a keyword's postings list.
type postMsg struct {
	Word string
	Elem squid.Element
}

// getMsg fetches a keyword's postings list.
type getMsg struct {
	QID     uint64
	Word    string
	ReplyTo transport.Addr
}

// postingsMsg answers a getMsg.
type postingsMsg struct {
	QID   uint64
	Word  string
	Elems []squid.Element
}

// bucket is the stored value for one hash key (handover unit).
type bucket map[string][]squid.Element

// App is the per-node inverted-index application. Like its node, it is
// confined to the node's delivery context.
type App struct {
	space chord.Space

	postings map[chord.ID]bucket
	node     *chord.Node

	pending map[uint64]*gather
}

type gather struct {
	want    int
	byWord  map[string][]squid.Element
	replies int
	done    func(map[string][]squid.Element)
}

// NewApp creates the application for a ring of the given geometry.
func NewApp(space chord.Space) *App {
	return &App{
		space:    space,
		postings: make(map[chord.ID]bucket),
		pending:  make(map[uint64]*gather),
	}
}

// Attach binds the app to its node.
func (a *App) Attach(n *chord.Node) { a.node = n }

// HashWord maps a keyword to its home identifier (FNV-1a folded into the
// ring).
func HashWord(space chord.Space, w string) chord.ID {
	h := fnv.New64a()
	h.Write([]byte(w))
	return space.Fold(h.Sum64())
}

// Deliver implements chord.App.
func (a *App) Deliver(from transport.Addr, key chord.ID, payload any) {
	switch m := payload.(type) {
	case postMsg:
		id := HashWord(a.space, m.Word)
		b, ok := a.postings[id]
		if !ok {
			b = bucket{}
			a.postings[id] = b
		}
		b[m.Word] = append(b[m.Word], m.Elem)
	case getMsg:
		id := HashWord(a.space, m.Word)
		elems := append([]squid.Element(nil), a.postings[id][m.Word]...)
		a.node.SendApp(m.ReplyTo, postingsMsg{QID: m.QID, Word: m.Word, Elems: elems})
	case postingsMsg:
		g, ok := a.pending[m.QID]
		if !ok {
			return
		}
		g.byWord[m.Word] = m.Elems
		g.replies++
		if g.replies == g.want {
			delete(a.pending, m.QID)
			g.done(g.byWord)
		}
	}
}

// Publish indexes an element under every keyword (one routed message per
// keyword — the k-fold publish cost). Goroutine-confined like all node
// methods.
func (a *App) Publish(e squid.Element, trace uint64) {
	for _, w := range e.Values {
		if w == "" {
			continue
		}
		a.node.Route(HashWord(a.space, w), postMsg{Word: w, Elem: e}, trace)
	}
}

// Lookup fetches postings for every keyword and calls done with the
// per-word lists. Goroutine-confined.
func (a *App) Lookup(qid uint64, words []string, done func(map[string][]squid.Element)) {
	words = dedup(words)
	if len(words) == 0 {
		done(nil)
		return
	}
	a.pending[qid] = &gather{want: len(words), byWord: map[string][]squid.Element{}, done: done}
	for _, w := range words {
		a.node.Route(HashWord(a.space, w), getMsg{QID: qid, Word: w, ReplyTo: a.node.Self().Addr}, qid)
	}
}

func dedup(ws []string) []string {
	seen := map[string]bool{}
	out := ws[:0:0]
	for _, w := range ws {
		if w != "" && !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// Intersect computes the conjunctive result from per-word postings,
// identifying elements by payload.
func Intersect(byWord map[string][]squid.Element) []squid.Element {
	if len(byWord) == 0 {
		return nil
	}
	counts := map[string]int{}
	rep := map[string]squid.Element{}
	for _, list := range byWord {
		seen := map[string]bool{}
		for _, e := range list {
			if !seen[e.Data] {
				seen[e.Data] = true
				counts[e.Data]++
				rep[e.Data] = e
			}
		}
	}
	var out []squid.Element
	for id, c := range counts {
		if c == len(byWord) {
			out = append(out, rep[id])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Data < out[j].Data })
	return out
}

// HandoverOut implements chord.App.
func (a *App) HandoverOut(x, y chord.ID) []chord.Item {
	var items []chord.Item
	for id, b := range a.postings {
		if a.space.Between(id, x, y) {
			items = append(items, chord.Item{Key: id, Value: b})
			delete(a.postings, id)
		}
	}
	return items
}

// HandoverIn implements chord.App.
func (a *App) HandoverIn(items []chord.Item) {
	for _, it := range items {
		b, ok := it.Value.(bucket)
		if !ok {
			continue
		}
		dst, ok := a.postings[it.Key]
		if !ok {
			a.postings[it.Key] = b
			continue
		}
		for w, es := range b {
			dst[w] = append(dst[w], es...)
		}
	}
}

// Load implements chord.App: number of posting keys stored.
func (a *App) Load() int { return len(a.postings) }

// PostingsSize returns the total number of posting entries at this node —
// the storage-blowup metric (each element appears once per keyword).
func (a *App) PostingsSize() int {
	n := 0
	for _, b := range a.postings {
		for _, es := range b {
			n += len(es)
		}
	}
	return n
}

var _ chord.App = (*App)(nil)

// Network is an inverted-index deployment over an oracle-bootstrapped
// Chord ring on the event core, for the baseline benchmarks. Like the core,
// it is confined to the goroutine that drives it.
type Network struct {
	core     *dessim.Core
	nodes    []*chord.Node // sorted by identifier
	qid      uint64
	messages map[uint64]int
}

// BuildNetwork constructs n nodes with the given ring width. Identifiers
// are drawn from seed, and the node drawn k-th listens as iv<k>.
func BuildNetwork(bits, n int, seed int64) (*Network, error) {
	space, err := chord.NewSpace(bits)
	if err != nil {
		return nil, err
	}
	nw := &Network{core: dessim.NewCore(), messages: make(map[uint64]int)}
	net := dessim.NewNet(nw.core, dessim.NetConfig{})
	net.SetObserver(func(from, to transport.Addr, msg any) {
		switch m := msg.(type) {
		case *chord.RouteMsg:
			nw.count(m.Trace)
		case postingsMsg:
			nw.count(m.QID)
		}
	})
	seen := map[uint64]bool{}
	rng := newRand(seed)
	for len(nw.nodes) < n {
		id := rng.Uint64() & space.Mask()
		if seen[id] {
			continue
		}
		seen[id] = true
		app := NewApp(space)
		node := chord.NewNode(chord.Config{Space: space, Clock: nw.core.Clock()}, chord.ID(id), app)
		app.Attach(node)
		ep, err := net.Listen(transport.Addr(fmt.Sprintf("iv%d", len(nw.nodes))), node)
		if err != nil {
			return nil, err
		}
		node.Start(ep)
		nw.nodes = append(nw.nodes, node)
	}
	sim.InstallRing(nw.nodes, 4)
	nw.core.Run()
	return nw, nil
}

// count charges one message to a traced query.
func (nw *Network) count(trace uint64) {
	if trace != 0 {
		nw.messages[trace]++
	}
}

// app returns the application of the via-th node in ring order.
func (nw *Network) app(via int) *App { return nw.nodes[via%len(nw.nodes)].App().(*App) }

// Publish indexes an element (k routed messages for k keywords).
// Call Quiesce before reading the index.
func (nw *Network) Publish(via int, e squid.Element) { nw.app(via).Publish(e, 0) }

// QueryResult reports one conjunctive query's outcome and cost.
type QueryResult struct {
	Matches  []squid.Element
	Messages int
}

// Query resolves a conjunctive exact-keyword query from the given peer.
func (nw *Network) Query(via int, words []string) QueryResult {
	nw.qid++
	qid := nw.qid
	var byWord map[string][]squid.Element
	nw.app(via).Lookup(qid, words, func(m map[string][]squid.Element) { byWord = m })
	nw.core.Run()
	return QueryResult{Matches: Intersect(byWord), Messages: nw.messages[qid]}
}

// Quiesce runs the network until it drains (e.g. after publishes).
func (nw *Network) Quiesce() { nw.core.Run() }

// TotalPostings sums posting entries across nodes (storage blowup).
func (nw *Network) TotalPostings() int {
	total := 0
	for i := range nw.nodes {
		total += nw.app(i).PostingsSize()
	}
	return total
}

// Size returns the number of peers.
func (nw *Network) Size() int { return len(nw.nodes) }

// newRand isolates the package's randomness.
func newRand(seed int64) *randSource { return &randSource{state: uint64(seed)*2654435761 + 1} }

// randSource is a tiny splitmix64 generator (enough for identifier
// sampling without importing math/rand state shared elsewhere).
type randSource struct{ state uint64 }

// Uint64 returns the next pseudo-random value.
func (r *randSource) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
