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

// View is Snapshot without the copies: it shares the node's slices, so
// read it before the node runs again. Call it on the delivery goroutine.
func (n *Node) View() Snapshot { return n.view }

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
	// order holds the members sorted by identifier; idx maps an address
	// to its position there.
	order := make([]Snapshot, 0, len(snaps))
	for _, s := range snaps {
		if s.Running && !s.Self.IsZero() {
			order = append(order, s)
		}
	}
	if len(order) <= 1 {
		return nil
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].Self.ID != order[j].Self.ID {
			//lint:allow-ringcmp absolute oracle ordering of the partition, not ring-relative
			return order[i].Self.ID < order[j].Self.ID
		}
		return order[i].Self.Addr < order[j].Self.Addr
	})
	idx := make(map[transport.Addr]int, len(order))
	for i, s := range order {
		idx[s.Self.Addr] = i
	}

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
	eff := make([]int, len(order)) // position of the effective successor, or -1
	for u, s := range order {
		eff[u] = -1
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
			j, live := idx[e.Addr]
			if !live {
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
			if eff[u] < 0 {
				eff[u] = j
			}
		}
		if ok && eff[u] < 0 {
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
	state := make([]int8, len(order))
	var cycles [][]int
	var path []int
	for start := range order {
		if state[start] != unvisited {
			continue
		}
		path = path[:0]
		u := start
		for u >= 0 && state[u] == unvisited {
			state[u] = onPath
			path = append(path, u)
			u = eff[u]
		}
		if u >= 0 && state[u] == onPath {
			// New cycle: the path suffix starting at u.
			i := 0
			for path[i] != u {
				i++
			}
			cycles = append(cycles, append([]int(nil), path[i:]...))
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
		if order[c[0]].Self.ID < order[cycles[principal][0]].Self.ID {
			principal = i
		}
	}
	for i, c := range cycles {
		if i == principal {
			continue
		}
		names := make([]string, len(c))
		for j, a := range c {
			names[j] = order[a].Self.String()
		}
		out = append(out, Violation{ViolationMultipleRings, order[c[0]].Self,
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
		for i, a := range cyc {
			byID[i] = order[a]
		}
		sort.Slice(byID, func(i, j int) bool {
			//lint:allow-ringcmp absolute oracle ordering for the witness search, not ring-relative
			return byID[i].Self.ID < byID[j].Self.ID
		})
		for _, a := range cyc {
			u, s := order[a], order[eff[a]]
			j := sort.Search(len(byID), func(k int) bool {
				//lint:allow-ringcmp finding the next identifier clockwise of u in the sorted oracle order
				return byID[k].Self.ID > u.Self.ID
			})
			if j == len(byID) {
				j = 0 // wrap: the nearest clockwise member is the smallest ID
			}
			w := byID[j]
			if w.Self.Addr == u.Self.Addr || w.Self.Addr == s.Self.Addr {
				continue
			}
			if space.BetweenOpen(w.Self.ID, u.Self.ID, s.Self.ID) {
				out = append(out, Violation{ViolationOrderedRing, u.Self,
					fmt.Sprintf("successor %s skips ring member %s", s.Self, w.Self)})
			}
		}
		order = byID // the ownership partition below is over ring members
	}

	// Ownership partition: the principal ring's members sorted by
	// identifier define the oracle arcs; each member's predecessor pointer
	// must match its oracle predecessor (complete partition), may lag
	// behind a dead node inside its oracle arc (gap, transient), and must
	// never reach past the oracle predecessor (overlap — two nodes would
	// accept the same key). An appendage — a joiner whose owner has not yet
	// spliced it in — is not a member yet: no successor pointer leads a key
	// to it, so its arc cannot overlap.
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
