package chord

import (
	"errors"
	"fmt"
	"testing"

	"squid/internal/transport"
)

// Deterministic reproductions of the Zave counterexamples ("How To Make
// Chord Correct", arXiv:1502.06461): each scenario runs twice, once under
// Config.LegacyRules (the original pseudo-code) where the invariant checker
// must catch the failure, and once under the corrected rules (the default)
// where the same schedule must stay violation-free.

// regRing wires white-box nodes onto one in-process network so tests can
// drive individual protocol steps and inspect confined state.
type regRing struct {
	t      *testing.T
	net    *transport.Inproc
	space  Space
	legacy bool
	nodes  []*Node
	apps   map[transport.Addr]*kvApp
}

func newRegRing(t *testing.T, legacy bool) *regRing {
	t.Helper()
	return &regRing{
		t:      t,
		net:    transport.NewInproc(),
		space:  MustSpace(10),
		legacy: legacy,
		apps:   map[transport.Addr]*kvApp{},
	}
}

func (r *regRing) node(id uint64, addr string) *Node {
	r.t.Helper()
	app := newKVApp(r.space)
	n := NewNode(Config{Space: r.space, LegacyRules: r.legacy}, ID(id), app)
	ep, err := r.net.Listen(transport.Addr(addr), n)
	if err != nil {
		r.t.Fatal(err)
	}
	n.Start(ep)
	r.apps[n.Self().Addr] = app
	r.nodes = append(r.nodes, n)
	return n
}

// install seeds a node's neighbor state through the oracle hook, in the
// node's goroutine.
func (r *regRing) install(n *Node, pred NodeRef, succs ...NodeRef) {
	r.t.Helper()
	if err := n.Invoke(func() { n.InstallRing(pred, succs, nil) }); err != nil {
		r.t.Fatal(err)
	}
	r.net.Quiesce()
}

// snapshots collects the state of every reachable node.
func (r *regRing) snapshots(nodes ...*Node) []Snapshot {
	r.t.Helper()
	var out []Snapshot
	for _, n := range nodes {
		ch := make(chan Snapshot, 1)
		if err := n.Invoke(func() { ch <- n.Snapshot() }); err != nil {
			continue // killed: not a member
		}
		out = append(out, <-ch)
	}
	return out
}

func (r *regRing) check(nodes ...*Node) []Violation {
	r.t.Helper()
	return CheckRing(r.space, r.snapshots(nodes...))
}

// store routes value under key and quiesces.
func (r *regRing) store(via *Node, key uint64) {
	r.t.Helper()
	if err := via.Invoke(func() { via.Route(ID(key), fmt.Sprintf("v%d", key), 0) }); err != nil {
		r.t.Fatal(err)
	}
	r.net.Quiesce()
}

func (r *regRing) pred(n *Node) NodeRef {
	r.t.Helper()
	ch := make(chan NodeRef, 1)
	if err := n.Invoke(func() { ch <- n.Pred() }); err != nil {
		r.t.Fatal(err)
	}
	return <-ch
}

func (r *regRing) holds(n *Node, key uint64) bool {
	r.t.Helper()
	app := r.apps[n.Self().Addr]
	app.mu.Lock()
	defer app.mu.Unlock()
	_, ok := app.store[ID(key)]
	return ok
}

// TestRegressionDeadSuccessorAdoption is Zave's stabilization
// counterexample: node s still names a dead node x as predecessor. The
// original rule makes u adopt x as successor sight unseen, so u's notify
// forever chases the corpse and s never learns u exists — the ownership gap
// at s persists indefinitely. The corrected rule probes x first, rejects
// it, and rectify at s installs u within one round.
func TestRegressionDeadSuccessorAdoption(t *testing.T) {
	run := func(t *testing.T, legacy bool) (healedAt int, final []Violation, rejects uint64) {
		r := newRegRing(t, legacy)
		u := r.node(100, "u")
		s := r.node(500, "s")
		dead := ref(300, "x") // never listened: every send to it fails
		r.install(u, s.Self(), s.Self(), u.Self())
		r.install(s, dead, u.Self(), s.Self())

		// Stabilize+notify only — Zave's counterexample needs no failures
		// beyond the stale pointer, and the predecessor probe would let the
		// legacy rules escape through their own zero-pred over-claim.
		healedAt = -1
		for round := 1; round <= 6; round++ {
			for _, n := range []*Node{u, s} {
				n := n
				if err := n.Invoke(n.Stabilize); err != nil {
					t.Fatal(err)
				}
				r.net.Quiesce()
			}
			if healedAt < 0 && r.pred(s).Addr == u.Self().Addr {
				healedAt = round
			}
		}
		return healedAt, r.check(u, s), u.ctr.succRejects.Value()
	}

	t.Run("legacy", func(t *testing.T) {
		healedAt, final, _ := run(t, true)
		if healedAt >= 0 {
			t.Fatalf("legacy rules unexpectedly healed at round %d: the notify chain "+
				"should chase the dead candidate forever", healedAt)
		}
		if len(final) == 0 {
			t.Fatal("legacy rules left no violation: expected a persistent ownership gap")
		}
	})
	t.Run("corrected", func(t *testing.T) {
		healedAt, final, rejects := run(t, false)
		if healedAt < 0 || healedAt > 2 {
			t.Fatalf("corrected rules healed at round %d, want within 2", healedAt)
		}
		if len(final) != 0 {
			t.Fatalf("corrected rules left violations: %v", final)
		}
		if rejects == 0 {
			t.Fatal("corrected rules should have counted the rejected dead candidate")
		}
	})
}

// TestRegressionUnilateralPredClear kills a node and runs the predecessor
// probe. The original rule clears the dead predecessor to zero, and a zero
// predecessor owns the entire ring — an ownership overlap every concurrent
// lookup can observe. The corrected rule only marks the boundary suspect
// (a transient gap, never an over-claim) until rectify installs the live
// replacement.
func TestRegressionUnilateralPredClear(t *testing.T) {
	run := func(t *testing.T, legacy bool) (afterProbe, final []Violation) {
		r := newRegRing(t, legacy)
		a := r.node(100, "a")
		b := r.node(500, "b")
		c := r.node(900, "c")
		r.install(a, c.Self(), b.Self(), c.Self(), a.Self())
		r.install(b, a.Self(), c.Self(), a.Self(), b.Self())
		r.install(c, b.Self(), a.Self(), b.Self(), c.Self())

		r.net.Kill(a.Self().Addr)
		for _, n := range []*Node{b, c} {
			n := n
			if err := n.Invoke(n.CheckPredecessor); err != nil {
				t.Fatal(err)
			}
		}
		r.net.Quiesce()
		afterProbe = r.check(b, c)

		for round := 0; round < 4; round++ {
			for _, n := range []*Node{b, c} {
				n := n
				if err := n.Invoke(func() {
					n.CheckPredecessor()
					n.Stabilize()
				}); err != nil {
					t.Fatal(err)
				}
				r.net.Quiesce()
			}
		}
		return afterProbe, r.check(b, c)
	}

	t.Run("legacy", func(t *testing.T) {
		afterProbe, _ := run(t, true)
		if len(HardViolations(afterProbe)) == 0 {
			t.Fatalf("legacy probe should over-claim via a zero predecessor, got %v", afterProbe)
		}
	})
	t.Run("corrected", func(t *testing.T) {
		afterProbe, final := run(t, false)
		if hard := HardViolations(afterProbe); len(hard) != 0 {
			t.Fatalf("corrected probe produced hard violations: %v", hard)
		}
		if len(final) != 0 {
			t.Fatalf("corrected rules did not heal cleanly: %v", final)
		}
	})
}

// TestRegressionJoinSpliceUnconfirmed is the lost-joiner counterexample: a
// joiner requests admission and then freezes (its endpoint swallows every
// message). The original rule splices it in and ships the arc's items
// before any sign of life — the items vanish and the owner's predecessor
// points at a ghost. The corrected three-phase join changes nothing until
// the joiner confirms, so the frozen joiner costs nothing.
func TestRegressionJoinSpliceUnconfirmed(t *testing.T) {
	keys := []uint64{150, 200, 250, 300, 400}
	arcKeys := []uint64{150, 200, 250, 300} // inside (100, 300], the ghost's would-be arc

	run := func(t *testing.T, legacy bool) (*regRing, *Node, *Node) {
		r := newRegRing(t, legacy)
		a := r.node(100, "a")
		b := r.node(500, "b")
		r.install(a, b.Self(), b.Self(), a.Self())
		r.install(b, a.Self(), a.Self(), b.Self())
		for _, k := range keys {
			r.store(b, k)
		}
		// The frozen joiner: listening, so sends to it succeed, but it
		// never acts on anything.
		if _, err := r.net.Listen("hole", transport.HandlerFunc(func(transport.Addr, any) {})); err != nil {
			t.Fatal(err)
		}
		if err := b.Invoke(func() { b.handleJoinReq(JoinReqMsg{New: ref(300, "hole")}) }); err != nil {
			t.Fatal(err)
		}
		r.net.Quiesce()
		return r, a, b
	}

	t.Run("legacy", func(t *testing.T) {
		r, a, b := run(t, true)
		if got := r.pred(b); got.Addr != "hole" {
			t.Fatalf("legacy admission should have spliced the ghost, pred = %s", got)
		}
		for _, k := range arcKeys {
			if r.holds(b, k) {
				t.Fatalf("legacy admission should have shipped key %d into the hole", k)
			}
		}
		if vs := r.check(a, b); len(vs) == 0 {
			t.Fatal("legacy admission left no violation: expected an ownership gap at the ghost boundary")
		}
	})
	t.Run("corrected", func(t *testing.T) {
		r, a, b := run(t, false)
		if got := r.pred(b); got.Addr != a.Self().Addr {
			t.Fatalf("corrected admission must not splice before confirmation, pred = %s", got)
		}
		for _, k := range keys {
			if !r.holds(b, k) {
				t.Fatalf("corrected admission lost key %d without a confirmed joiner", k)
			}
		}
		if vs := r.check(a, b); len(vs) != 0 {
			t.Fatalf("corrected admission left violations: %v", vs)
		}
	})
}

// TestJoinReqReclaimJoinerVanished covers the legacy reclaim path: the
// joiner's endpoint is gone by admission time (send fails), so the owner
// must restore its predecessor and take its items back.
func TestJoinReqReclaimJoinerVanished(t *testing.T) {
	keys := []uint64{150, 250, 300}
	r := newRegRing(t, true)
	a := r.node(100, "a")
	b := r.node(500, "b")
	r.install(a, b.Self(), b.Self(), a.Self())
	r.install(b, a.Self(), a.Self(), b.Self())
	for _, k := range keys {
		r.store(b, k)
	}
	if err := b.Invoke(func() { b.handleJoinReq(JoinReqMsg{New: ref(300, "ghost")}) }); err != nil {
		t.Fatal(err)
	}
	r.net.Quiesce()
	if got := r.pred(b); got.Addr != a.Self().Addr {
		t.Fatalf("pred not restored after vanished joiner: %s", got)
	}
	for _, k := range keys {
		if !r.holds(b, k) {
			t.Fatalf("key %d not reclaimed after vanished joiner", k)
		}
	}
	if vs := r.check(a, b); len(vs) != 0 {
		t.Fatalf("reclaim left violations: %v", vs)
	}
}

// TestConfirmReclaimJoinerVanished is the corrected-rules twin: the joiner
// confirmed but dies before the handoff lands. The owner reclaims the items
// and keeps its predecessor.
func TestConfirmReclaimJoinerVanished(t *testing.T) {
	keys := []uint64{150, 250, 300}
	r := newRegRing(t, false)
	a := r.node(100, "a")
	b := r.node(500, "b")
	r.install(a, b.Self(), b.Self(), a.Self())
	r.install(b, a.Self(), a.Self(), b.Self())
	for _, k := range keys {
		r.store(b, k)
	}
	if err := b.Invoke(func() { b.handleJoinConfirm(JoinConfirmMsg{New: ref(300, "ghost")}) }); err != nil {
		t.Fatal(err)
	}
	r.net.Quiesce()
	if got := r.pred(b); got.Addr != a.Self().Addr {
		t.Fatalf("pred changed after failed handoff: %s", got)
	}
	for _, k := range keys {
		if !r.holds(b, k) {
			t.Fatalf("key %d not reclaimed after failed handoff", k)
		}
	}
	if vs := r.check(a, b); len(vs) != 0 {
		t.Fatalf("failed handoff left violations: %v", vs)
	}
}

// TestJoinAckMalformedGuard: an ack whose successor list names no usable
// peer must refuse the join instead of silently starting a shadow ring
// whose only successor is the joiner itself.
func TestJoinAckMalformedGuard(t *testing.T) {
	r := newRegRing(t, false)
	app := newKVApp(r.space)
	j := NewNode(Config{Space: r.space}, 300, app)
	ep, err := r.net.Listen("j", j)
	if err != nil {
		t.Fatal(err)
	}
	j.Start(ep)

	for _, tc := range []struct {
		name  string
		succs []NodeRef
	}{
		{"empty", nil},
		{"all-zero", []NodeRef{{}, {}}},
		{"only-self", []NodeRef{{ID: 300, Addr: "j"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan error, 1)
			if err := j.Invoke(func() {
				j.joinDone = func(err error) { done <- err }
				j.handleJoinAck(JoinAckMsg{Succs: tc.succs})
			}); err != nil {
				t.Fatal(err)
			}
			if err := <-done; !errors.Is(err, ErrJoinRefused) {
				t.Fatalf("malformed ack: err = %v, want ErrJoinRefused", err)
			}
			ch := make(chan bool, 1)
			if err := j.Invoke(func() { ch <- j.Running() }); err != nil {
				t.Fatal(err)
			}
			if <-ch {
				t.Fatal("node started running on a malformed ack")
			}
		})
	}
}

// TestLeaveFallsBackThroughSuccList: the immediate successor is dead when a
// node leaves gracefully, so the leave (and its items) must land on the
// next live successor-list entry instead of being silently lost.
func TestLeaveFallsBackThroughSuccList(t *testing.T) {
	keys := []uint64{150, 250, 300}
	r := newRegRing(t, false)
	a := r.node(100, "a")
	b := r.node(300, "b")
	c := r.node(500, "c")
	d := r.node(900, "d")
	r.install(a, d.Self(), b.Self(), c.Self(), d.Self(), a.Self())
	r.install(b, a.Self(), c.Self(), d.Self(), a.Self(), b.Self())
	r.install(c, b.Self(), d.Self(), a.Self(), b.Self(), c.Self())
	r.install(d, c.Self(), a.Self(), b.Self(), c.Self(), d.Self())
	for _, k := range keys {
		r.store(b, k)
	}

	r.net.Kill(c.Self().Addr) // b's immediate successor dies first
	if err := b.Invoke(b.Leave); err != nil {
		t.Fatal(err)
	}
	r.net.Quiesce()

	r.store(b, 200) // a routed write reaching the departed b is passed on
	owns := make(chan bool, 1)
	for _, k := range append(keys, 200) {
		if err := d.Invoke(func() { owns <- d.Owns(ID(k)) }); err != nil {
			t.Fatal(err)
		}
		if !r.holds(d, k) || r.holds(b, k) || !<-owns {
			t.Fatalf("key %d did not reach the fallback successor's arc", k)
		}
	}
	// The leaver's predecessor was told about the surviving successor.
	ch := make(chan NodeRef, 1)
	if err := a.Invoke(func() { ch <- a.Succ() }); err != nil {
		t.Fatal(err)
	}
	if got := <-ch; got.Addr != d.Self().Addr {
		t.Fatalf("predecessor's successor = %s, want the fallback %s", got, d.Self())
	}
}

// TestLeaveKeepsItemsWhenRingGone: every successor-list entry is dead at
// leave time. The items must stay in the local store rather than vanish.
func TestLeaveKeepsItemsWhenRingGone(t *testing.T) {
	keys := []uint64{150, 250, 300}
	r := newRegRing(t, false)
	a := r.node(100, "a")
	b := r.node(300, "b")
	c := r.node(500, "c")
	r.install(a, c.Self(), b.Self(), c.Self(), a.Self())
	r.install(b, a.Self(), c.Self(), a.Self(), b.Self())
	r.install(c, b.Self(), a.Self(), b.Self(), c.Self())
	for _, k := range keys {
		r.store(b, k)
	}

	r.net.Kill(a.Self().Addr)
	r.net.Kill(c.Self().Addr)
	if err := b.Invoke(b.Leave); err != nil {
		t.Fatal(err)
	}
	r.net.Quiesce()

	for _, k := range keys {
		if !r.holds(b, k) {
			t.Fatalf("key %d dropped on the floor with no live successor", k)
		}
	}
}
