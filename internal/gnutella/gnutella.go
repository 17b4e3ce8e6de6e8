// Package gnutella implements the unstructured flooding baseline the paper
// compares against qualitatively (Section 4.1.1: "a keyword search system
// like Gnutella would have to query the entire network using some form of
// flooding to guarantee that all the matches to a query are returned").
//
// Peers form a random graph; a query floods with a TTL and per-query
// duplicate suppression; matches are reported directly to the initiator.
// Flooding finds only what the TTL radius reaches: recall is not
// guaranteed, and message cost grows with the whole network rather than
// with the result set — the two defects Squid's structured approach fixes.
// Peers run on the event core's transport (dessim.Net), which passes
// messages as values, so the message types below have no wire codec. A
// flood is therefore a function of the seed: with instant links it reaches
// every peer first along a shortest path.
package gnutella

import (
	"fmt"
	"math/rand"
	"sort"

	"squid/internal/dessim"
	"squid/internal/keyspace"
	"squid/internal/squid"
	"squid/internal/transport"
)

// queryMsg floods the network.
type queryMsg struct {
	QID    uint64
	Query  keyspace.Query
	TTL    int
	Origin transport.Addr
}

// resultMsg reports local matches to the initiator.
type resultMsg struct {
	QID     uint64
	Matches []squid.Element
}

// Peer is one unstructured participant.
type Peer struct {
	space     *keyspace.Space
	ep        transport.Endpoint
	neighbors []transport.Addr

	elems    []squid.Element
	seen     map[uint64]bool
	pending  map[uint64]*pendingQuery
	messages map[uint64]int // flood sends per query (summed network-wide by the driver)
}

type pendingQuery struct {
	matches []squid.Element
}

// NewPeer creates a peer over the given keyword space (used only for exact
// match filtering; flooding needs no index).
func NewPeer(space *keyspace.Space) *Peer {
	return &Peer{
		space:    space,
		seen:     make(map[uint64]bool),
		pending:  make(map[uint64]*pendingQuery),
		messages: make(map[uint64]int),
	}
}

// Start attaches the peer to its endpoint.
func (p *Peer) Start(ep transport.Endpoint) { p.ep = ep }

// SetNeighbors installs the peer's adjacency list.
func (p *Peer) SetNeighbors(ns []transport.Addr) {
	p.neighbors = append([]transport.Addr(nil), ns...)
}

// AddElement stores an element locally (unstructured systems keep data
// where it is published).
func (p *Peer) AddElement(e squid.Element) { p.elems = append(p.elems, e) }

// Deliver implements transport.Handler.
func (p *Peer) Deliver(from transport.Addr, msg any) {
	switch m := msg.(type) {
	case queryMsg:
		p.handleQuery(m)
	case resultMsg:
		if st, ok := p.pending[m.QID]; ok {
			st.matches = append(st.matches, m.Matches...)
		}
	}
}

func (p *Peer) handleQuery(m queryMsg) {
	if p.seen[m.QID] {
		return
	}
	p.seen[m.QID] = true
	var local []squid.Element
	for _, e := range p.elems {
		if p.space.Matches(m.Query, e.Values) {
			local = append(local, e)
		}
	}
	if len(local) > 0 {
		_ = p.ep.Send(m.Origin, resultMsg{QID: m.QID, Matches: local}) // origin may have left; flooding makes no delivery guarantee
	}
	if m.TTL <= 0 {
		return
	}
	fwd := queryMsg{QID: m.QID, Query: m.Query, TTL: m.TTL - 1, Origin: m.Origin}
	for _, n := range p.neighbors {
		if p.ep.Send(n, fwd) == nil {
			p.messages[m.QID]++
		}
	}
}

// Network is a simulated unstructured overlay on the event core. Like the
// core, it is confined to the goroutine that drives it.
type Network struct {
	Space *keyspace.Space
	Peers []*Peer

	core    *dessim.Core
	nextQID uint64
}

// Build wires n peers into a random graph of the given average degree.
func Build(space *keyspace.Space, n, degree int, seed int64) (*Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("gnutella: need at least one peer")
	}
	nw := &Network{Space: space, core: dessim.NewCore()}
	net := dessim.NewNet(nw.core, dessim.NetConfig{})
	addrs := make([]transport.Addr, n)
	for i := 0; i < n; i++ {
		p := NewPeer(space)
		addr := transport.Addr(fmt.Sprintf("g%d", i))
		ep, err := net.Listen(addr, p)
		if err != nil {
			return nil, err
		}
		p.Start(ep)
		nw.Peers = append(nw.Peers, p)
		addrs[i] = addr
	}
	// Random connected graph: a ring for connectivity plus random chords up
	// to the target degree.
	rng := rand.New(rand.NewSource(seed))
	adj := make([]map[int]bool, n)
	for i := range adj {
		adj[i] = map[int]bool{}
	}
	link := func(a, b int) {
		if a != b {
			adj[a][b] = true
			adj[b][a] = true
		}
	}
	for i := 0; i < n; i++ {
		link(i, (i+1)%n)
	}
	for i := 0; i < n; i++ {
		for len(adj[i]) < degree {
			link(i, rng.Intn(n))
			if n <= degree {
				break
			}
		}
	}
	for i, p := range nw.Peers {
		var ns []transport.Addr
		for j := range adj[i] {
			ns = append(ns, addrs[j])
		}
		// Map order is random; sorting fixes the send order, so a flood
		// reports its matches in the same order every run.
		sort.Slice(ns, func(a, b int) bool { return ns[a] < ns[b] })
		p.SetNeighbors(ns)
	}
	return nw, nil
}

// Publish stores an element at the given peer.
func (nw *Network) Publish(at int, e squid.Element) { nw.Peers[at].AddElement(e) }

// FloodResult reports one flooded query's outcome.
type FloodResult struct {
	Matches  []squid.Element
	Messages int // total query transmissions network-wide
	Visited  int // peers that saw the query
}

// Query floods q from the given peer with the TTL and returns matches
// found plus cost. Recall is complete only if the TTL covers the graph.
func (nw *Network) Query(from int, q keyspace.Query, ttl int) FloodResult {
	nw.nextQID++
	qid := nw.nextQID
	origin := nw.Peers[from]
	origin.pending[qid] = &pendingQuery{}
	origin.handleQuery(queryMsg{QID: qid, Query: q, TTL: ttl, Origin: origin.ep.Addr()})
	nw.core.Run()

	res := FloodResult{Matches: origin.pending[qid].matches}
	delete(origin.pending, qid)
	for _, p := range nw.Peers {
		res.Messages += p.messages[qid]
		if p.seen[qid] {
			res.Visited++
		}
	}
	return res
}
