package chord_test

import (
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
