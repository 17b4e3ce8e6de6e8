package chord_test

import (
	"errors"
	"testing"
	"time"

	"squid/internal/chord"
	"squid/internal/dessim"
	"squid/internal/transport"
)

// TestFindSuccessorCancelsTimeout: on the event core, the reply to a
// lookup stops its RPC timeout at once. A handle whose Stop missed its
// entry's generation would leave the timeout armed: the heap would not be
// empty in the callback, and draining it would run the clock out to
// RPCTimeout. The lookup needs a remote hop: a names b as its successor
// and b answers for its own successor c, so a cannot answer it locally.
func TestFindSuccessorCancelsTimeout(t *testing.T) {
	const timeout = 5 * time.Second
	core := dessim.NewCore()
	net := dessim.NewNet(core, dessim.NetConfig{Seed: 1, MinLatency: time.Millisecond, MaxLatency: 5 * time.Millisecond})
	cfg := chord.Config{Space: chord.MustSpace(10), RPCTimeout: timeout, Clock: core.Clock()}
	mk := func(name transport.Addr, id chord.ID) *chord.Node {
		n := chord.NewNode(cfg, id, nil)
		ep, err := net.Listen(name, n)
		if err != nil {
			t.Fatal(err)
		}
		n.Start(ep)
		return n
	}
	a, b, c := mk("a", 100), mk("b", 600), mk("c", 800)
	a.InstallRing(c.Self(), []chord.NodeRef{b.Self(), c.Self()}, nil)
	b.InstallRing(a.Self(), []chord.NodeRef{c.Self(), a.Self()}, nil)
	c.InstallRing(b.Self(), []chord.NodeRef{a.Self(), b.Self()}, nil)

	calls, pending := 0, -1
	var owner chord.NodeRef
	var at time.Duration
	a.FindSuccessor(700, 0, func(m chord.FoundMsg, err error) {
		if err != nil {
			t.Errorf("lookup failed: %v", err)
		}
		calls++
		owner, pending, at = m.Owner, core.Pending(), core.Elapsed()
	})
	core.Run()
	if calls != 1 || owner.ID != 800 {
		t.Fatalf("callback ran %d times with owner %v, want once with id 800", calls, owner)
	}
	if at == 0 {
		t.Fatal("the lookup was answered before any message crossed a link: no timeout was armed")
	}
	if pending != 0 {
		t.Errorf("Pending = %d in the callback, want 0: the timeout is still armed", pending)
	}
	if el := core.Elapsed(); el >= timeout {
		t.Errorf("Elapsed = %v after the drain, want < %v: the timeout fired", el, timeout)
	}
}

// TestJoinEndsPastDeadSuccessor: a seed whose successor list is [dead
// member, itself] has no live route to the owner of some identifiers, and
// a join through it must end with an error rather than wait forever. Both
// joins go through seed a (100) of the ring 100 → 600 → 800, where 600 is
// dead and a still names it:
//   - 500 lies in a's successor's arc, so a answers the lookup itself with
//     the dead 600; the join request that the joiner then sends to a
//     cannot be forwarded, and a must refuse it with a JoinNackMsg;
//   - 700 lies past the dead successor, so a cannot forward the lookup and
//     drops it; the joiner's lookup must time out after the time a retried
//     lookup would have had, RPCTimeout for each of 1+RPCRetries attempts.
func TestJoinEndsPastDeadSuccessor(t *testing.T) {
	const timeout, retries = 5 * time.Second, 1
	for _, tc := range []struct {
		id      chord.ID
		refused bool // a JoinNackMsg ends it, else the lookup's timeout
	}{{500, true}, {700, false}} {
		core := dessim.NewCore()
		net := dessim.NewNet(core, dessim.NetConfig{Seed: 1, MinLatency: time.Millisecond, MaxLatency: 5 * time.Millisecond})
		cfg := chord.Config{Space: chord.MustSpace(10), RPCTimeout: timeout, RPCRetries: retries, Clock: core.Clock()}
		mk := func(name transport.Addr, id chord.ID) *chord.Node {
			n := chord.NewNode(cfg, id, nil)
			ep, err := net.Listen(name, n)
			if err != nil {
				t.Fatal(err)
			}
			n.Start(ep)
			return n
		}
		a, b, c := mk("a", 100), mk("b", 600), mk("c", 800)
		a.InstallRing(c.Self(), []chord.NodeRef{b.Self(), a.Self()}, nil)
		c.InstallRing(a.Self(), []chord.NodeRef{a.Self()}, nil)
		net.Kill(b.Self().Addr)

		j := mk("j", tc.id)
		calls := 0
		var joinErr error
		var at time.Duration
		j.Join(a.Self().Addr, func(err error) { calls, joinErr, at = calls+1, err, core.Elapsed() })
		core.Run()
		if calls != 1 {
			t.Fatalf("join of %d: done ran %d times, want once", tc.id, calls)
		}
		if tc.refused && (!errors.Is(joinErr, chord.ErrJoinRefused) || at >= timeout) {
			t.Errorf("join of %d ended at %v with %v, want ErrJoinRefused before the %v timeout", tc.id, at, joinErr, timeout)
		}
		if want := (1 + retries) * timeout; !tc.refused && (!errors.Is(joinErr, chord.ErrTimeout) || at != want) {
			t.Errorf("join of %d ended at %v with %v, want ErrTimeout at %v", tc.id, at, joinErr, want)
		}
	}
}
