package chord

import (
	"fmt"
	"slices"
	"testing"

	"squid/internal/telemetry"
	"squid/internal/transport"
)

// Exhaustive checks of the routing decision on every small ring. A ring
// has at most five members on a 4-bit identifier space (so four fingers),
// one member fixed at identifier 0 to factor out rotation, and a
// successor list of two. Up to two members are dead. For each dead member
// and each kind of entry that can name it — its successor's predecessor,
// the successor lists, the fingers — the live members either hold fresh
// entries or still point at it; only the states CheckRing reports no hard
// violation for are kept.

const (
	smallBits  = 4
	smallSuccs = 2
)

// Which entries still name a dead member.
const (
	stalePred = 1 << iota
	staleSuccs
	staleFingers
	staleAll = stalePred | staleSuccs | staleFingers
	isDead   = 8
)

// smallRing is one enumerated state: members in ring order, the dead ones,
// the stale mask of each dead one, and every live member's view, indexed
// by identifier (nil for a dead member or a free identifier).
type smallRing struct {
	ids   []ID
	dead  []ID
	stale []int
	views [1 << smallBits]*Snapshot
}

var smallAddrs = func() (a [1 << smallBits]transport.Addr) {
	for i := range a {
		a[i] = transport.Addr(fmt.Sprintf("n%d", i))
	}
	return a
}()

func smallRef(id ID) NodeRef { return NodeRef{ID: id, Addr: smallAddrs[id]} }

func (r *smallRing) live(id ID) bool { return r.views[id] != nil }

// owner is the oracle: the first live member at or after key.
func (r *smallRing) owner(key ID) ID {
	for id := key; ; id = (id + 1) % (1 << smallBits) {
		if r.live(id) {
			return id
		}
	}
}

// deadBoundary reports whether some live member's predecessor is dead.
func (r *smallRing) deadBoundary() bool {
	for _, v := range r.views {
		if v != nil && !r.live(v.Pred.ID) {
			return true
		}
	}
	return false
}

func (r *smallRing) String() string {
	return fmt.Sprintf("ring %v dead %v stale %v", r.ids, r.dead, r.stale)
}

// canonicalGaps lists every way to split the ring into n arcs (gaps
// between consecutive members), one per rotation class: the gap sequence
// that is the least of its rotations.
func canonicalGaps(n, total int) [][]int {
	var out [][]int
	gaps := make([]int, n)
	var rec func(i, left int)
	rec = func(i, left int) {
		if i == n-1 {
			gaps[i] = left
			for r := 1; r < n; r++ {
				if slices.Compare(append(slices.Clone(gaps[r:]), gaps[:r]...), gaps) < 0 {
					return
				}
			}
			out = append(out, slices.Clone(gaps))
			return
		}
		for g := 1; g <= left-(n-1-i); g++ {
			gaps[i] = g
			rec(i+1, left-g)
		}
	}
	rec(0, total)
	return out
}

// buildView is member self's view: each entry names the nearest member in
// its direction that the entry's kind still believes in. stale holds, for
// each dead member, isDead plus the kinds of entry still naming it.
func buildView(sp Space, ids []ID, self ID, stale *[1 << smallBits]int) *Snapshot {
	believes := func(id ID, kind int) bool { return stale[id] == 0 || stale[id]&kind != 0 }
	// next returns the first believed member at or clockwise after key.
	next := func(key ID, kind int) NodeRef {
		best, bestDist := self, sp.Dist(key, self)
		for _, id := range ids {
			if d := sp.Dist(key, id); d < bestDist && believes(id, kind) {
				best, bestDist = id, d
			}
		}
		return smallRef(best)
	}
	v := &Snapshot{Self: smallRef(self), Pred: smallRef(self), Running: true,
		Succs: make([]NodeRef, 0, smallSuccs), Fingers: make([]NodeRef, 0, smallBits)}
	bestDist := uint64(0)
	for _, id := range ids {
		if d := sp.Dist(id, self); id != self && believes(id, stalePred) && (bestDist == 0 || d < bestDist) {
			v.Pred, bestDist = smallRef(id), d
		}
	}
	v.PredSuspect = stale[v.Pred.ID] != 0
	for s := next(sp.Add(self, 1), staleSuccs); len(v.Succs) < smallSuccs; s = next(sp.Add(s.ID, 1), staleSuccs) {
		v.Succs = append(v.Succs, s)
		if s.ID == self {
			break
		}
	}
	for i := 0; i < smallBits; i++ {
		v.Fingers = append(v.Fingers, next(sp.Add(self, 1<<i), staleFingers))
	}
	return v
}

// eachSmallRing calls fn for every enumerated ring state CheckRing accepts,
// rings of fewer members first.
func eachSmallRing(fn func(*smallRing)) {
	sp := MustSpace(smallBits)
	seen := map[string]bool{}
	for n := 2; n <= 5; n++ {
		for _, gaps := range canonicalGaps(n, 1<<smallBits) {
			ids := make([]ID, n)
			for i := 1; i < n; i++ {
				ids[i] = ids[i-1] + ID(gaps[i-1])
			}
			for mask := 0; mask < 1<<n; mask++ {
				var dead []ID
				for i, id := range ids {
					if mask&(1<<i) != 0 {
						dead = append(dead, id)
					}
				}
				if len(dead) > 2 || n-len(dead) < 2 {
					continue
				}
				stale := make([]int, len(dead))
				for {
					eachStaleState(sp, ids, dead, stale, seen, fn)
					i := 0
					for ; i < len(stale) && stale[i] == staleAll; i++ {
						stale[i] = 0
					}
					if i == len(stale) {
						break
					}
					stale[i]++
				}
			}
		}
	}
}

// eachStaleState builds the live members' views for one pattern of dead
// members and stale masks, and calls fn unless an earlier pattern gave the
// same views or CheckRing finds a hard violation.
func eachStaleState(sp Space, ids, dead []ID, stale []int, seen map[string]bool, fn func(*smallRing)) {
	var staleOf [1 << smallBits]int
	for i, d := range dead {
		staleOf[d] = isDead | stale[i]
	}
	r := &smallRing{ids: ids, dead: dead, stale: slices.Clone(stale)}
	snaps := make([]Snapshot, 0, len(ids))
	var key []byte
	for _, id := range ids {
		if staleOf[id] == 0 {
			v := buildView(sp, ids, id, &staleOf)
			r.views[id] = v
			snaps = append(snaps, *v)
			key = append(key, byte(id), byte(v.Pred.ID))
			for _, list := range [...][]NodeRef{v.Succs, v.Fingers} {
				for _, c := range list {
					key = append(key, byte(c.ID))
				}
			}
		}
	}
	// A stale entry of a kind nobody holds leaves the views as they were.
	if seen[string(key)] {
		return
	}
	seen[string(key)] = true
	if len(HardViolations(CheckRing(sp, snaps))) > 0 {
		return
	}
	fn(r)
}

// forwards reports whether a routed message moves on under verdict k.
func forwards(k hopKind) bool { return k == hopForward || k == hopLast }

// decide is member at's routing of a message for target that has been
// forwarded hops times, with dead candidates failing their send: nextHop's
// verdict and, for a forward, the live member the message goes to.
func (r *smallRing) decide(sp Space, at, target ID, hops int) (hopKind, ID) {
	v := r.views[at]
	var buf [4]transport.Addr
	tried := buf[:0]
	kind, c := nextHop(sp, v, target, hops, nil)
	for forwards(kind) && !r.live(c.ID) {
		tried = append(tried, c.Addr)
		kind, c = nextHop(sp, v, target, hops, tried)
	}
	return kind, c.ID
}

// walkSmall follows a message for target from member from, every view
// frozen, until a member keeps or drops it. It returns the members visited,
// the start first, and the last one's verdict.
func walkSmall(sp Space, r *smallRing, from, target ID) ([]ID, hopKind) {
	path := []ID{from}
	for hops := 0; ; hops++ {
		kind, next := r.decide(sp, path[len(path)-1], target, hops)
		if !forwards(kind) {
			return path, kind
		}
		path = append(path, next)
	}
}

// gapLoop is the first state, in enumeration order, where a walk under
// today's rule fails to reach the owner: three members {0, 1, 2}, member 0
// dead and still member 1's (suspect) predecessor, so the dead member's arc
// (2, 0] belongs to no live node. A message for key 0 from member 1 goes to
// member 2, which hands it back to member 1, and so on until the hop limit.
// Making the predecessor of a dead boundary decide the last hop (ROADMAP
// item 28b) turns this expected loop into a delivery.
var gapLoop = struct {
	ring, dead []ID
	stale      []int
	from       ID
	target     ID
	cycle      []ID
}{[]ID{0, 1, 2}, []ID{0}, []int{stalePred}, 1, 0, []ID{1, 2}}

// TestNextHopSmallRings walks nextHop from every live member to every key
// of every enumerated ring state, once as a routed message and once as a
// lookup. Where no live member's predecessor is dead, every route walk
// must reach the key's owner, every hop must bring the message strictly
// closer to the key or land on the owner, and no walk may visit a node
// twice. Where a dead predecessor is kept as an arc boundary, a route walk
// may circle instead; the first one that does must be the committed
// gapLoop, which must circle until the hop limit.
//
// A lookup follows the route walk's path until a member's first verdict
// settles the owner: the owner answers for itself, and the predecessor
// (hopLast) names its successor without a send. With no dead arc boundary
// every lookup is answered, one hop short of the route walk or at its end,
// and names the true owner and that owner's live predecessor, unless the
// answering member's successor is a dead entry it has not dropped yet:
// then it names the dead member whose arc the true owner took over.
//
// Below the hop limit a member's decision does not depend on the hop
// count, so each state's decisions are computed once per member and key,
// and a walk that comes back to a member it visited circles for good.
func TestNextHopSmallRings(t *testing.T) {
	t.Parallel()
	sp := MustSpace(smallBits)
	states, walks, circled, lookups, shorter, deadAnswers := 0, 0, 0, 0, 0, 0
	var loop *smallRing
	var loopFrom, loopTarget ID
	var first, final decisions
	eachSmallRing(func(r *smallRing) {
		states++
		boundary := r.deadBoundary()
		for _, at := range r.ids {
			for target := ID(0); r.live(at) && target < 1<<smallBits; target++ {
				final.kind[at][target], final.next[at][target] = r.decide(sp, at, target, 0)
				k, c := nextHop(sp, r.views[at], target, 0, nil)
				first.kind[at][target], first.next[at][target] = k, c.ID
			}
		}
		for _, from := range r.ids {
			for target := ID(0); r.live(from) && target < 1<<smallBits; target++ {
				walks++
				owner := r.owner(target)
				at, seen, progress, hops := from, uint64(0), true, 0
				for forwards(final.kind[at][target]) && seen&(1<<at) == 0 {
					hops++
					seen |= 1 << at
					next := final.next[at][target]
					progress = progress && seen&(1<<next) == 0 &&
						(next == owner || sp.Dist(next, target) < sp.Dist(at, target))
					at = next
				}
				switch {
				case final.kind[at][target] == hopDeliver && at == owner:
					if !boundary && !progress {
						t.Fatalf("%s: the walk from %d for key %d revisits a node or makes no progress", r, from, target)
					}
					if !boundary {
						lookups++
						switch r.checkFind(t, sp, &first, &final, from, target, hops) {
						case hops - 1:
							shorter++
						case -1:
							deadAnswers++
						}
					}
				case !boundary || !forwards(final.kind[at][target]):
					t.Fatalf("%s: the walk from %d for key %d ends at %d with verdict %d, owner %d",
						r, from, target, at, final.kind[at][target], owner)
				default:
					circled++
					if loop == nil {
						loop, loopFrom, loopTarget = r, from, target
					}
				}
			}
		}
	})
	t.Logf("%d ring states, %d walks, %d circle; of %d lookups with no dead boundary, %d take one hop fewer than the route and %d name a dead successor",
		states, walks, circled, lookups, shorter, deadAnswers)
	if shorter == 0 {
		t.Fatal("no lookup was answered by the owner's predecessor")
	}
	if loop == nil {
		t.Fatal("no walk circles: the gap loop is gone, so gapLoop and this test's expectation must flip")
	}
	g := gapLoop
	if !slices.Equal(loop.ids, g.ring) || !slices.Equal(loop.dead, g.dead) || !slices.Equal(loop.stale, g.stale) ||
		loopFrom != g.from || loopTarget != g.target {
		t.Fatalf("first circling walk: %s from %d for key %d; want ring %v dead %v stale %v from %d for key %d",
			loop, loopFrom, loopTarget, g.ring, g.dead, g.stale, g.from, g.target)
	}
	path, kind := walkSmall(sp, loop, g.from, g.target)
	if kind != hopOverLimit || len(path) != sp.MaxHops()+1 {
		t.Fatalf("gap loop walk ends %d after %d nodes, want the hop limit after %d", kind, len(path), sp.MaxHops()+1)
	}
	for i, id := range path {
		if id != g.cycle[i%len(g.cycle)] {
			t.Fatalf("gap loop walk %v does not circle %v", path, g.cycle)
		}
	}
}

// decisions holds every live member's verdict and pick for every key of
// one state, indexed by member and key.
type decisions struct {
	kind [1 << smallBits][1 << smallBits]hopKind
	next [1 << smallBits][1 << smallBits]ID
}

// livePred is the last live member before id on the ring.
func (r *smallRing) livePred(sp Space, id ID) ID {
	p := sp.Add(id, 1<<smallBits-1)
	for !r.live(p) {
		p = sp.Add(p, 1<<smallBits-1)
	}
	return p
}

// checkFind walks a lookup for target from member from over a state with
// no dead arc boundary and checks its answer against the oracle and the
// route walk, which took routeHops. first holds each member's first
// verdict and pick, final its decision once dead candidates failed their
// send. It returns the lookup's hops, or -1 if the answer named a dead
// successor.
func (r *smallRing) checkFind(t *testing.T, sp Space, first, final *decisions, from, target ID, routeHops int) int {
	t.Helper()
	at, hops := from, 0
	for ; first.kind[at][target] != hopDeliver && first.kind[at][target] != hopLast; hops++ {
		if !forwards(final.kind[at][target]) || hops == len(r.ids) {
			t.Fatalf("%s: the lookup from %d for key %d is not answered: verdict %d at %d after %d hops",
				r, from, target, final.kind[at][target], at, hops)
		}
		at = final.next[at][target]
	}
	owner, pred := at, r.views[at].Pred.ID
	if first.kind[at][target] == hopLast {
		owner, pred = first.next[at][target], at
	}
	if !r.live(owner) {
		if owner != r.views[at].Succs[0].ID || r.owner(owner) != r.owner(target) {
			t.Fatalf("%s: the lookup from %d for key %d names dead %d, which is not %d's successor entry before the owner",
				r, from, target, owner, at)
		}
		return -1
	}
	if owner != r.owner(target) || pred != r.livePred(sp, owner) {
		t.Fatalf("%s: the lookup from %d for key %d answers owner %d pred %d, want %d and %d",
			r, from, target, owner, pred, r.owner(target), r.livePred(sp, owner))
	}
	if hops != routeHops && hops != routeHops-1 {
		t.Fatalf("%s: the lookup from %d for key %d takes %d hops, the route %d", r, from, target, hops, routeHops)
	}
	return hops
}

// refClosestPreceding and refForwardToward are the routing code nextHop
// replaced, kept as the reference it must reproduce: each stage is
// computed over the node's state after the previous stage's failed
// candidates were dropped.
func refClosestPreceding(n *Node, target ID) NodeRef {
	sp := n.cfg.Space
	best := NodeRef{}
	bestDist := uint64(0)
	consider := func(c NodeRef) {
		if c.IsZero() || c.ID == n.view.Self.ID {
			return
		}
		if !sp.BetweenOpen(c.ID, n.view.Self.ID, target) {
			return
		}
		if d := sp.Dist(n.view.Self.ID, c.ID); best.IsZero() || d > bestDist {
			best, bestDist = c, d
		}
	}
	for i, f := range n.view.Fingers {
		if i > 0 && f == n.view.Fingers[i-1] {
			continue
		}
		consider(f)
	}
	for _, s := range n.view.Succs {
		consider(s)
	}
	if best.IsZero() {
		return n.Succ()
	}
	return best
}

func refForwardToward(n *Node, target ID, msg any) bool {
	var buf [16]transport.Addr
	tried := append(buf[:0], n.view.Self.Addr)
	try := func(c NodeRef) bool {
		if c.IsZero() || slices.Contains(tried, c.Addr) {
			return false
		}
		tried = append(tried, c.Addr)
		if n.send(c.Addr, msg) {
			return true
		}
		n.dropDead(c.Addr)
		return false
	}
	if sp := n.cfg.Space; sp.Between(target, n.view.Self.ID, n.Succ().ID) {
		if try(n.Succ()) {
			return true
		}
	}
	if try(refClosestPreceding(n, target)) {
		return true
	}
	for _, s := range n.SuccList() {
		if try(s) {
			return true
		}
	}
	for _, f := range n.Fingers() {
		if try(f) {
			return true
		}
	}
	return false
}

// scriptedEndpoint records every send and fails those to a dead address.
type scriptedEndpoint struct {
	addr transport.Addr
	dead []transport.Addr
	sent []transport.Addr
}

func (e *scriptedEndpoint) Addr() transport.Addr { return e.addr }
func (e *scriptedEndpoint) Close() error         { return nil }
func (e *scriptedEndpoint) Send(to transport.Addr, _ any) error {
	e.sent = append(e.sent, to)
	if slices.Contains(e.dead, to) {
		return transport.ErrUnreachable
	}
	return nil
}

// install overwrites n's neighbor state with copies of v's.
func install(n *Node, ep *scriptedEndpoint, v *Snapshot) {
	n.view.Self, n.view.Pred, n.view.PredSuspect = v.Self, v.Pred, v.PredSuspect
	n.view.Succs, n.view.Fingers = append(n.view.Succs[:0], v.Succs...), append(n.view.Fingers[:0], v.Fingers...)
	n.ep, ep.addr, ep.sent = ep, v.Self.Addr, ep.sent[:0]
}

// TestForwardMatchesReference runs the new forwarding loop and the
// reference on every distinct member view of the enumeration, rotated so
// the member sits at identifier 0, for every key the member does not own
// and every subset of its candidates failing their send. Both must send
// to the same candidates in the same order, agree on the outcome, and
// leave the same predecessor, successor list and fingers.
func TestForwardMatchesReference(t *testing.T) {
	t.Parallel()
	sp := MustSpace(smallBits)
	cfg := Config{Space: sp, SuccListLen: smallSuccs, Telemetry: telemetry.NewRegistry(nil)}
	ref, got := NewNode(cfg, 0, nil), NewNode(cfg, 0, nil)
	refEP, gotEP := &scriptedEndpoint{}, &scriptedEndpoint{}
	seen := map[string]bool{}
	views, runs := 0, 0
	eachSmallRing(func(r *smallRing) {
		for _, v := range r.views {
			if v == nil {
				continue
			}
			v = rotated(sp, v)
			key := []byte{byte(v.Pred.ID), byte(len(v.Succs))}
			if v.PredSuspect {
				key[1] |= 0x80
			}
			for _, list := range [...][]NodeRef{v.Succs, v.Fingers} {
				for _, c := range list {
					key = append(key, byte(c.ID))
				}
			}
			if !seen[string(key)] {
				seen[string(key)] = true
				views++
				runs += checkAgainstReference(t, sp, v, ref, got, refEP, gotEP)
			}
		}
	})
	t.Logf("%d distinct views, %d forwards compared", views, runs)
}

// rotated is v with every identifier shifted so that v.Self is 0.
func rotated(sp Space, v *Snapshot) *Snapshot {
	shift := func(c NodeRef) NodeRef { return smallRef(ID(sp.Dist(v.Self.ID, c.ID))) }
	out := &Snapshot{Self: shift(v.Self), Pred: shift(v.Pred), PredSuspect: v.PredSuspect, Running: true}
	for _, s := range v.Succs {
		out.Succs = append(out.Succs, shift(s))
	}
	for _, f := range v.Fingers {
		out.Fingers = append(out.Fingers, shift(f))
	}
	return out
}

func checkAgainstReference(t *testing.T, sp Space, v *Snapshot, ref, got *Node, refEP, gotEP *scriptedEndpoint) int {
	var cands []transport.Addr
	for _, c := range append(slices.Clone(v.Succs), v.Fingers...) {
		if c.Addr != v.Self.Addr && !slices.Contains(cands, c.Addr) {
			cands = append(cands, c.Addr)
		}
	}
	runs := 0
	for target := ID(0); target < 1<<smallBits; target++ {
		if sp.InArc(target, v.Pred, v.Self) {
			continue
		}
		for mask := 0; mask < 1<<len(cands); mask++ {
			dead := refEP.dead[:0]
			for i, c := range cands {
				if mask&(1<<i) != 0 {
					dead = append(dead, c)
				}
			}
			refEP.dead, gotEP.dead = dead, dead
			install(ref, refEP, v)
			install(got, gotEP, v)
			refOK := refForwardToward(ref, target, nil)
			_, next := nextHop(sp, &got.view, target, 1, nil)
			gotOK := got.forward(target, next, nil)
			runs++
			if refOK != gotOK || !slices.Equal(refEP.sent, gotEP.sent) ||
				ref.view.Pred != got.view.Pred || ref.view.PredSuspect != got.view.PredSuspect ||
				!slices.Equal(ref.view.Succs, got.view.Succs) || !slices.Equal(ref.view.Fingers, got.view.Fingers) {
				t.Fatalf("view %+v, key %d, dead %v:\nreference sent %v (%v), succs %v fingers %v suspect %v\nnextHop   sent %v (%v), succs %v fingers %v suspect %v",
					*v, target, dead, refEP.sent, refOK, ref.view.Succs, ref.view.Fingers, ref.view.PredSuspect,
					gotEP.sent, gotOK, got.view.Succs, got.view.Fingers, got.view.PredSuspect)
			}
		}
	}
	return runs
}

// TestHopLimitDropsCounted routes one message of each kind that has used
// up its hops to a node that does not own its key: each is dropped and
// counted under its kind.
func TestHopLimitDropsCounted(t *testing.T) {
	sp := MustSpace(smallBits)
	reg := telemetry.NewRegistry(nil)
	n := NewNode(Config{Space: sp, Telemetry: reg}, 0, nil)
	ep := &scriptedEndpoint{}
	install(n, ep, buildView(sp, []ID{0, 4, 8}, 0, new([1 << smallBits]int)))
	n.view.Running = true
	hops := sp.MaxHops()
	n.Deliver("x", &FindMsg{Target: 5, ReplyTo: "x", Hops: hops})
	n.Deliver("x", &RouteMsg{Key: 5, Hops: hops})
	n.Deliver("x", JoinReqMsg{New: smallRef(5), Hops: hops})
	n.Deliver("x", JoinConfirmMsg{New: smallRef(5), Hops: hops})
	drops := reg.CounterVec("squid_chord_hop_limit_drops_total", "", "node", "kind")
	for _, kind := range []string{"find", "route", "join", "confirm"} {
		if got := drops.Sum("kind", kind); got != 1 {
			t.Errorf("%s drops = %d, want 1", kind, got)
		}
	}
	// The failed find and the join's refusal go back to the sender; nothing
	// is forwarded.
	if want := []transport.Addr{"x", "n5"}; !slices.Equal(ep.sent, want) {
		t.Errorf("sent %v, want %v", ep.sent, want)
	}
}
