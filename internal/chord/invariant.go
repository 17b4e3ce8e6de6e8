package chord

import (
	"fmt"
	"sort"

	"squid/internal/transport"
)

// This file is the machine check for the ring invariants Zave proved the
// original Chord rules violate ("How To Make Chord Correct",
// arXiv:1502.06461): Ordered Ring, At Most One Ring, Connected Appendages,
// Valid Successor Lists, and — because Squid's recall guarantee rides on
// every key having exactly one owner — completeness of the ownership
// partition. CheckRing consumes a global snapshot of every node's neighbor
// state and returns typed violations; the simulator asserts it after every
// stabilization round, and squid-sim exposes it as the `check` command.

// Snapshot is one node's neighbor state. A Node keeps its live state in one,
// which routing reads in place; Node.Snapshot returns a copy.
type Snapshot struct {
	Self    NodeRef
	Pred    NodeRef
	Succs   []NodeRef
	Fingers []NodeRef
	// Running reports ring membership; stopped nodes are ignored by the
	// checker.
	Running bool
	// PredSuspect reports that the node's predecessor failed a liveness
	// probe and is retained only as the arc boundary.
	PredSuspect bool
}

// Snapshot captures the node's neighbor state. Like every accessor of
// goroutine-confined state it must be called from the delivery goroutine
// (via Invoke or an upcall).
func (n *Node) Snapshot() Snapshot {
	s := n.view
	s.Succs, s.Fingers = n.SuccList(), n.Fingers()
	return s
}

// ViolationKind names one broken ring invariant.
type ViolationKind string

const (
	// ViolationOrderedRing: two adjacent cycle members have a third cycle
	// member strictly between their identifiers — the ring is not in
	// identifier order.
	ViolationOrderedRing ViolationKind = "ordered-ring"
	// ViolationMultipleRings: the effective-successor graph contains a
	// cycle disjoint from the principal ring ("At Most One Ring").
	ViolationMultipleRings ViolationKind = "multiple-rings"
	// ViolationDisconnected: a node's successor chain cannot reach the
	// principal ring because some link has no live successor ("Connected
	// Appendages").
	ViolationDisconnected ViolationKind = "disconnected"
	// ViolationSuccList: a successor list is structurally invalid (empty,
	// zero entries, out of ring order, or self before the end).
	ViolationSuccList ViolationKind = "succ-list"
	// ViolationOwnershipOverlap: a node's claimed arc overlaps another live
	// node's arc (zero or wildly stale predecessor) — a routed key could be
	// accepted by two owners.
	ViolationOwnershipOverlap ViolationKind = "ownership-overlap"
	// ViolationOwnershipGap: part of the identifier space has no live
	// owner because a node's arc boundary is a dead node. Transient by
	// design under the corrected rules: the boundary is retained (suspect)
	// until rectify installs a live one, and no node over-claims meanwhile.
	ViolationOwnershipGap ViolationKind = "ownership-gap"
)

// Violation is one broken invariant, anchored at the node exhibiting it.
type Violation struct {
	Kind   ViolationKind
	Node   NodeRef
	Detail string
}

// Error renders the violation; Violation satisfies error so test helpers
// can return one directly.
func (v Violation) Error() string {
	return fmt.Sprintf("ring invariant %s at %s: %s", v.Kind, v.Node, v.Detail)
}

// Transient reports whether the violation is expected to self-heal under
// the corrected rules without any node over-claiming ownership. Only
// ownership gaps qualify: a dead arc boundary is retained deliberately
// until rectify replaces it.
func (v Violation) Transient() bool { return v.Kind == ViolationOwnershipGap }

// HardViolations filters out transient violations, leaving those that
// indicate genuine protocol failure.
func HardViolations(vs []Violation) []Violation {
	out := vs[:0:0]
	for _, v := range vs {
		if !v.Transient() {
			out = append(out, v)
		}
	}
	return out
}

// CheckRing verifies the global ring invariants over a snapshot of every
// node. Stopped nodes are ignored; a ring of zero or one members is
// trivially correct. The returned violations are deterministic for a given
// snapshot (sorted by node identifier within each phase of the check).
func CheckRing(space Space, snaps []Snapshot) []Violation {
	members := make(map[transport.Addr]Snapshot)
	for _, s := range snaps {
		if s.Running && !s.Self.IsZero() {
			members[s.Self.Addr] = s
		}
	}
	if len(members) <= 1 {
		return nil
	}
	order := make([]Snapshot, 0, len(members))
	for _, s := range members {
		order = append(order, s)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].Self.ID != order[j].Self.ID {
			//lint:allow-ringcmp absolute oracle ordering of the partition, not ring-relative
			return order[i].Self.ID < order[j].Self.ID
		}
		return order[i].Self.Addr < order[j].Self.Addr
	})

	var out []Violation

	// Valid Successor Lists, and the effective successor of each member:
	// the first live-member entry scanning up to the first self-reference
	// (which marks one full loop around the node's view of the ring —
	// entries past it are lap-stale tombstones). Dead entries are legal
	// anywhere (they are dropped lazily and preserve failover depth), but
	// the live entries before the loop closure must be in ring order, and
	// the list must lead somewhere alive. This is Zave's continuous
	// formulation: the invariant holds at every reachable state, not just
	// after healing, so the simulator can assert it after every round.
	eff := make(map[transport.Addr]transport.Addr, len(order))
	for _, s := range order {
		if len(s.Succs) == 0 {
			out = append(out, Violation{ViolationSuccList, s.Self, "empty successor list"})
			continue
		}
		prev, ok := uint64(0), true
		for i, e := range s.Succs {
			if e.IsZero() {
				out = append(out, Violation{ViolationSuccList, s.Self,
					fmt.Sprintf("zero entry at index %d", i)})
				ok = false
				break
			}
			if e.Addr == s.Self.Addr {
				break // loop closure: the rest is one lap stale
			}
			if _, live := members[e.Addr]; !live {
				continue // tombstone awaiting lazy removal
			}
			d := space.Dist(s.Self.ID, e.ID)
			if d == 0 || (prev != 0 && d <= prev) {
				out = append(out, Violation{ViolationSuccList, s.Self,
					fmt.Sprintf("live entry %s at index %d not in ring order", e, i)})
				ok = false
				break
			}
			prev = d
			if _, found := eff[s.Self.Addr]; !found {
				eff[s.Self.Addr] = e.Addr
			}
		}
		if !ok {
			continue
		}
		if _, found := eff[s.Self.Addr]; !found {
			out = append(out, Violation{ViolationDisconnected, s.Self,
				"no live successor: every successor-list entry is dead"})
		}
	}

	// At Most One Ring + Connected Appendages: walk the effective-successor
	// functional graph. Every chain must reach one principal cycle; extra
	// cycles and dead-end chains are violations (flagged at their root
	// cause — the cycle, or the node with no live successor).
	const (
		unvisited = 0
		onPath    = 1
		done      = 2
	)
	state := make(map[transport.Addr]int, len(order))
	var cycles [][]Snapshot
	for _, start := range order {
		if state[start.Self.Addr] != unvisited {
			continue
		}
		var path []transport.Addr
		u := start.Self.Addr
		for u != "" && state[u] == unvisited {
			state[u] = onPath
			path = append(path, u)
			u = eff[u]
		}
		if u != "" && state[u] == onPath {
			// New cycle: the path suffix starting at u.
			i := 0
			for path[i] != u {
				i++
			}
			cyc := make([]Snapshot, 0, len(path)-i)
			for _, a := range path[i:] {
				cyc = append(cyc, members[a])
			}
			cycles = append(cycles, cyc)
		}
		for _, a := range path {
			state[a] = done
		}
	}
	principal := -1
	for i, c := range cycles {
		if principal < 0 || len(c) > len(cycles[principal]) {
			principal = i
			continue
		}
		if len(c) != len(cycles[principal]) {
			continue
		}
		//lint:allow-ringcmp deterministic tie-break between equal-size cycles, not ring-relative
		if c[0].Self.ID < cycles[principal][0].Self.ID {
			principal = i
		}
	}
	for i, c := range cycles {
		if i == principal {
			continue
		}
		names := make([]string, len(c))
		for j, s := range c {
			names[j] = s.Self.String()
		}
		out = append(out, Violation{ViolationMultipleRings, c[0].Self,
			fmt.Sprintf("cycle of %d nodes disjoint from the principal ring: %v", len(c), names)})
	}

	// Ordered Ring: along the principal cycle, no cycle member may sit
	// strictly between a node and its effective successor. It suffices to
	// test the nearest clockwise cycle member: if any member lies strictly
	// inside (u, succ(u)), the nearest one does, so one binary search per
	// node replaces the quadratic all-pairs scan (which at 10⁴ members cost
	// more than the stabilization round it was checking).
	if principal >= 0 {
		cyc := cycles[principal]
		byID := make([]Snapshot, len(cyc))
		copy(byID, cyc)
		sort.Slice(byID, func(i, j int) bool {
			//lint:allow-ringcmp absolute oracle ordering for the witness search, not ring-relative
			return byID[i].Self.ID < byID[j].Self.ID
		})
		for _, u := range cyc {
			sAddr := eff[u.Self.Addr]
			s := members[sAddr]
			j := sort.Search(len(byID), func(k int) bool {
				//lint:allow-ringcmp finding the next identifier clockwise of u in the sorted oracle order
				return byID[k].Self.ID > u.Self.ID
			})
			if j == len(byID) {
				j = 0 // wrap: the nearest clockwise member is the smallest ID
			}
			w := byID[j]
			if w.Self.Addr == u.Self.Addr || w.Self.Addr == sAddr {
				continue
			}
			if space.BetweenOpen(w.Self.ID, u.Self.ID, s.Self.ID) {
				out = append(out, Violation{ViolationOrderedRing, u.Self,
					fmt.Sprintf("successor %s skips ring member %s", s.Self, w.Self)})
			}
		}
	}

	// Ownership partition: live members sorted by identifier define the
	// oracle arcs; each member's predecessor pointer must match its oracle
	// predecessor (complete partition), may lag behind a dead node inside
	// its oracle arc (gap, transient), and must never reach past the oracle
	// predecessor (overlap — two nodes would accept the same key).
	for i, s := range order {
		oracle := order[(i+len(order)-1)%len(order)].Self
		p := s.Pred
		switch {
		case p.IsZero():
			out = append(out, Violation{ViolationOwnershipOverlap, s.Self,
				"zero predecessor claims the entire ring"})
		case p.Addr == s.Self.Addr:
			out = append(out, Violation{ViolationOwnershipOverlap, s.Self,
				"self-predecessor claims the entire ring"})
		case p.ID == oracle.ID:
			// Exact partition boundary.
		case space.BetweenOpen(p.ID, oracle.ID, s.Self.ID):
			suspect := ""
			if s.PredSuspect {
				suspect = " (marked suspect)"
			}
			out = append(out, Violation{ViolationOwnershipGap, s.Self,
				fmt.Sprintf("arc starts at dead %s%s, leaving (%s, %s] unowned", p, suspect, oracle, p)})
		default:
			out = append(out, Violation{ViolationOwnershipOverlap, s.Self,
				fmt.Sprintf("claimed arc (%s, %s] reaches past oracle predecessor %s", p, s.Self, oracle)})
		}
	}
	return out
}
