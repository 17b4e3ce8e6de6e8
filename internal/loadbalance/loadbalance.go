// Package loadbalance implements the paper's load-balancing mechanisms
// (Section 3.5). The SFC mapping preserves keyword locality, so keys are
// *not* uniformly distributed over the index space; with uniformly random
// node identifiers, load is unbalanced (paper Fig. 18). Three mechanisms
// repair this:
//
//   - Load balancing at node join: the joining node samples several
//     candidate identifiers, probes the load of each candidate's successor,
//     and joins where load is highest — splitting the hottest arc.
//   - Runtime neighbor balancing: periodically, lightly loaded nodes
//     relocate (leave + rejoin) to the key-median of their most loaded
//     neighbor's arc, taking over half of its keys.
//   - Virtual nodes: each physical peer hosts several virtual ring nodes;
//     overloaded virtual nodes split, and overloaded physical peers hand a
//     virtual node to a lighter peer (pure reassignment — the ring is
//     unchanged).
package loadbalance

import (
	"fmt"
	"sort"

	"squid/internal/chord"
	"squid/internal/sim"
)

// CandidateLoad reports the probe result for one candidate identifier.
type CandidateLoad struct {
	ID    chord.ID
	Owner chord.NodeRef
	Load  int
}

// ProbeLoads resolves, through the given ring member, the successor of
// every candidate identifier and its current load (stored keys). The
// callback runs in the member's delivery goroutine once all probes have
// answered. Cost: O(J log N) messages for J candidates, matching the
// paper's join-cost analysis.
func ProbeLoads(member *chord.Node, candidates []chord.ID, cb func([]CandidateLoad)) {
	results := make([]CandidateLoad, len(candidates))
	remaining := len(candidates)
	if remaining == 0 {
		cb(nil)
		return
	}
	finish := func() {
		remaining--
		if remaining == 0 {
			cb(results)
		}
	}
	for i, id := range candidates {
		i, id := i, id
		results[i] = CandidateLoad{ID: id, Load: -1}
		member.FindSuccessor(id, 0, func(m chord.FoundMsg, err error) {
			if err != nil {
				finish()
				return
			}
			results[i].Owner = m.Owner
			member.GetStateOf(m.Owner.Addr, func(st chord.StateMsg, err error) {
				if err == nil {
					results[i].Load = st.Load
				}
				finish()
			})
		})
	}
}

// ChooseBest picks the candidate whose successor is most loaded — the
// paper's join-time rule ("the new node uses the identifier that will
// place it in the most loaded part of the network"). Returns false if no
// probe succeeded.
func ChooseBest(loads []CandidateLoad) (chord.ID, bool) {
	best := -1
	for i, c := range loads {
		if c.Load < 0 {
			continue
		}
		if best < 0 || c.Load > loads[best].Load {
			best = i
		}
	}
	if best < 0 {
		return 0, false
	}
	return loads[best].ID, true
}

// SampledJoin grows the network by one peer using join-time load
// balancing with the given number of candidate identifiers. It probes
// through a random existing member, picks the hottest arc, and joins
// there. Returns the new peer.
func SampledJoin(nw *sim.Network, samples int, randID func() chord.ID) (*sim.Peer, error) {
	if samples < 1 {
		samples = 1
	}
	member := nw.Peers[0].Node
	candidates := make([]chord.ID, samples)
	for i := range candidates {
		candidates[i] = randID()
	}
	var loads []CandidateLoad
	if err := member.Invoke(func() {
		ProbeLoads(member, candidates, func(ls []CandidateLoad) { loads = ls })
	}); err != nil {
		return nil, fmt.Errorf("loadbalance: probe invoke: %w", err)
	}
	nw.Quiesce()
	id, ok := ChooseBest(loads)
	if !ok {
		id = candidates[0]
	}
	p, err := nw.AddPeer(id)
	if err != nil {
		// Identifier collision or instability: retry once with a fresh
		// random identifier.
		return nw.AddPeer(randID())
	}
	return p, nil
}

// NeighborRound runs one round of the paper's first runtime algorithm:
// every node compares load with its successor, and when the successor is
// more than threshold times as loaded, the node relocates to the key
// median of the successor's arc, taking over roughly half of its keys
// (implemented, as in deployed DHTs, as a leave followed by a re-join at
// the chosen identifier). Returns the number of relocations performed.
func NeighborRound(nw *sim.Network, threshold float64) (int, error) {
	if threshold < 1 {
		threshold = 1
	}
	type move struct {
		lightID chord.ID
		target  chord.ID
	}
	loads := nw.LoadVector()
	n := len(nw.Peers)
	var plan []move
	claimed := make(map[chord.ID]bool) // heavy nodes already being split
	for i := 0; i < n; i++ {
		succ := (i + 1) % n
		if claimed[nw.Peers[succ].ID()] || claimed[nw.Peers[i].ID()] {
			continue
		}
		if float64(loads[succ]) > threshold*float64(loads[i]+1) && loads[succ] >= 4 {
			heavy := nw.Peers[succ]
			median, ok := medianKey(nw, heavy)
			if !ok {
				continue
			}
			plan = append(plan, move{lightID: nw.Peers[i].ID(), target: chord.ID(median)})
			claimed[heavy.ID()] = true
			claimed[nw.Peers[i].ID()] = true
		}
	}
	moves := 0
	for _, mv := range plan {
		idx := peerIndex(nw, mv.lightID)
		if idx < 0 {
			continue
		}
		nw.RemovePeer(idx)
		if _, err := nw.AddPeer(mv.target); err != nil {
			// Collision: skip this move; the next round retries elsewhere.
			continue
		}
		moves++
	}
	return moves, nil
}

// Balance runs NeighborRound until no relocations happen or maxRounds is
// reached; returns rounds executed.
func Balance(nw *sim.Network, threshold float64, maxRounds int) (int, error) {
	for r := 0; r < maxRounds; r++ {
		moved, err := NeighborRound(nw, threshold)
		if err != nil {
			return r, err
		}
		if moved == 0 {
			return r, nil
		}
	}
	return maxRounds, nil
}

// medianKey returns the median stored key of a peer's arc.
func medianKey(nw *sim.Network, p *sim.Peer) (k uint64, ok bool) {
	sim.MustInvoke(p, func() { k, ok = p.Engine.LocalStore().MedianKey() })
	nw.Quiesce()
	return k, ok
}

func peerIndex(nw *sim.Network, id chord.ID) int {
	for i, p := range nw.Peers {
		if p.ID() == id {
			return i
		}
	}
	return -1
}

// VirtualPool assigns the network's ring nodes ("virtual nodes") to a
// smaller set of physical hosts and rebalances by splitting hot virtual
// nodes and migrating virtual nodes between hosts — the paper's second
// runtime algorithm.
type VirtualPool struct {
	nw     *sim.Network
	hosts  int
	assign map[chord.ID]int
}

// NewVirtualPool distributes the current peers round-robin over the given
// number of physical hosts.
func NewVirtualPool(nw *sim.Network, hosts int) (*VirtualPool, error) {
	if hosts < 1 {
		return nil, fmt.Errorf("loadbalance: need at least one host")
	}
	vp := &VirtualPool{nw: nw, hosts: hosts, assign: make(map[chord.ID]int)}
	for i, p := range nw.Peers {
		vp.assign[p.ID()] = i % hosts
	}
	return vp, nil
}

// HostLoads sums each host's virtual-node loads.
func (vp *VirtualPool) HostLoads() []int {
	out := make([]int, vp.hosts)
	loads := vp.nw.LoadVector()
	for i, p := range vp.nw.Peers {
		h, ok := vp.assign[p.ID()]
		if !ok {
			h = i % vp.hosts
			vp.assign[p.ID()] = h
		}
		out[h] += loads[i]
	}
	return out
}

// Split divides every virtual node whose load exceeds threshold by adding
// a new virtual node (on the same host) at its arc's key median. Returns
// the number of splits.
func (vp *VirtualPool) Split(threshold int) int {
	splits := 0
	type cand struct {
		host   int
		target chord.ID
	}
	var plan []cand
	loads := vp.nw.LoadVector()
	for i, p := range vp.nw.Peers {
		if loads[i] <= threshold {
			continue
		}
		if m, ok := medianKey(vp.nw, p); ok {
			plan = append(plan, cand{host: vp.assign[p.ID()], target: chord.ID(m)})
		}
	}
	for _, c := range plan {
		p, err := vp.nw.AddPeer(c.target)
		if err != nil {
			continue
		}
		vp.assign[p.ID()] = c.host
		splits++
	}
	return splits
}

// Migrate moves the heaviest virtual node of the most loaded host to the
// least loaded host (bookkeeping only — the ring is untouched, exactly the
// cheapness argument the paper makes for virtual nodes). Returns true if a
// migration happened.
func (vp *VirtualPool) Migrate() bool {
	hostLoads := vp.HostLoads()
	hi, lo := 0, 0
	for h := range hostLoads {
		if hostLoads[h] > hostLoads[hi] {
			hi = h
		}
		if hostLoads[h] < hostLoads[lo] {
			lo = h
		}
	}
	if hi == lo || hostLoads[hi] <= hostLoads[lo]+1 {
		return false
	}
	// Heaviest virtual node on the hot host whose move does not overshoot.
	loads := vp.nw.LoadVector()
	best := -1
	for i, p := range vp.nw.Peers {
		if vp.assign[p.ID()] != hi {
			continue
		}
		if best < 0 || loads[i] > loads[best] {
			best = i
		}
	}
	if best < 0 {
		return false
	}
	gap := hostLoads[hi] - hostLoads[lo]
	if loads[best] >= gap {
		// Moving it would invert the imbalance; move only if it still
		// improves the spread.
		if 2*loads[best]-gap >= gap {
			return false
		}
	}
	vp.assign[vp.nw.Peers[best].ID()] = lo
	return true
}

// MigrateAll runs Migrate until it stops improving or maxMoves is reached;
// returns moves performed.
func (vp *VirtualPool) MigrateAll(maxMoves int) int {
	moves := 0
	for moves < maxMoves && vp.Migrate() {
		moves++
	}
	return moves
}

// Assignment returns a copy of the virtual→host map, keyed by ring id.
func (vp *VirtualPool) Assignment() map[chord.ID]int {
	out := make(map[chord.ID]int, len(vp.assign))
	for k, v := range vp.assign {
		out[k] = v
	}
	return out
}

// SortedHostLoads is HostLoads sorted ascending (for distribution plots).
func (vp *VirtualPool) SortedHostLoads() []int {
	out := vp.HostLoads()
	sort.Ints(out)
	return out
}
