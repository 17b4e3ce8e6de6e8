package chord

import (
	"slices"

	"squid/internal/transport"
)

// hopKind is nextHop's verdict on a routed message.
type hopKind uint8

const (
	hopForward   hopKind = iota // to the returned candidate
	hopLast                     // to the returned successor, which owns the target
	hopDeliver                  // here: the deciding node owns the target
	hopOverLimit                // dropped: forwarded MaxHops times already
	hopExhausted                // dropped: no candidate is left untried
)

// MaxHops bounds how many times a routed message may be forwarded. A
// consistent ring resolves any target within Space.Bits hops; the slack
// absorbs detours around failures. Past it a message is dropped (a find is
// answered with a zero Owner): a transient loop during churn must not live
// forever, or stabilization could never catch up.
func (sp Space) MaxHops() int { return 3*sp.Bits + 32 }

// nextHop is every forwarding decision of the ring — routed payloads,
// lookups, join requests and confirmations — as a pure function of the
// deciding node's view v. A message for target, forwarded hops times so
// far, is delivered if target lies in v's arc and dropped past MaxHops.
// Otherwise the candidates come in stage order: the successor when target
// lies in (self, succ], the closest preceding finger or successor-list
// entry, the successor list, every finger. The first that is not zero,
// self or in tried is the next hop. A successor picked in the first stage
// is the target's owner in v, so the verdict is hopLast: a lookup is
// answered here, and everything else forwards as for hopForward.
func nextHop(sp Space, v *Snapshot, target ID, hops int, tried []transport.Addr) (hopKind, NodeRef) {
	if sp.InArc(target, v.Pred, v.Self) {
		return hopDeliver, NodeRef{}
	}
	if hops >= sp.MaxHops() {
		return hopOverLimit, NodeRef{}
	}
	if succ := v.succ(); sp.Between(target, v.Self.ID, succ.ID) && untried(v, tried, succ) {
		return hopLast, succ
	}
	if c := v.closestPreceding(sp, target); untried(v, tried, c) {
		return hopForward, c
	}
	for _, list := range [...][]NodeRef{v.Succs, v.Fingers} {
		for _, c := range list {
			if untried(v, tried, c) {
				return hopForward, c
			}
		}
	}
	return hopExhausted, NodeRef{}
}

func untried(v *Snapshot, tried []transport.Addr, c NodeRef) bool {
	return !c.IsZero() && c.Addr != v.Self.Addr && !slices.Contains(tried, c.Addr)
}

// closestPreceding is Chord's closest_preceding_node over the view: of the
// fingers and successor-list entries strictly inside (self, target), the
// one farthest from self (the first of equals), or zero if there is none.
func (v *Snapshot) closestPreceding(sp Space, target ID) NodeRef {
	best, bestDist := NodeRef{}, uint64(0)
	for _, list := range [...][]NodeRef{v.Fingers, v.Succs} {
		for i, c := range list {
			// Fingers come in runs: every finger start inside one node's arc
			// names that node. A repeat of the entry before it cannot change
			// the choice, so it is not weighed again.
			if i > 0 && c == list[i-1] || c.IsZero() || !sp.BetweenOpen(c.ID, v.Self.ID, target) {
				continue
			}
			if d := sp.Dist(v.Self.ID, c.ID); d > bestDist {
				best, bestDist = c, d
			}
		}
	}
	return best
}

// succ is the view's immediate successor (self on a singleton ring).
func (v *Snapshot) succ() NodeRef {
	if len(v.Succs) == 0 {
		return v.Self
	}
	return v.Succs[0]
}

// forward sends msg to next, nextHop's pick toward target, and while sends
// fail, to the next candidate nextHop names over the same view: failed
// candidates leave it only afterwards, in the order they failed. The first
// verdict settled ownership and the hop limit, so these calls pass no hop
// count. It reports whether someone took msg; a zero next sends nothing.
func (n *Node) forward(target ID, next NodeRef, msg any) bool {
	var buf [16]transport.Addr // the candidates number a few dozen at most
	dead := buf[:0]
	for !next.IsZero() && !n.send(next.Addr, msg) {
		dead = append(dead, next.Addr)
		_, next = nextHop(n.cfg.Space, &n.view, target, 0, dead)
	}
	for _, a := range dead {
		n.dropDead(a)
	}
	return !next.IsZero()
}
