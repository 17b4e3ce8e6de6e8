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
// RPCTimeout.
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
	a, b := mk("a", 100), mk("b", 600)
	a.InstallRing(b.Self(), []chord.NodeRef{b.Self()}, nil)
	b.InstallRing(a.Self(), []chord.NodeRef{a.Self()}, nil)

	calls, pending := 0, -1
	var owner chord.NodeRef
	a.FindSuccessor(500, 0, func(m chord.FoundMsg, err error) {
		if err != nil {
			t.Errorf("lookup failed: %v", err)
		}
		calls++
		owner, pending = m.Owner, core.Pending()
	})
	core.Run()
	if calls != 1 || owner.ID != 600 {
		t.Fatalf("callback ran %d times with owner %v, want once with id 600", calls, owner)
	}
	if pending != 0 {
		t.Errorf("Pending = %d in the callback, want 0: the timeout is still armed", pending)
	}
	if el := core.Elapsed(); el >= timeout {
		t.Errorf("Elapsed = %v after the drain, want < %v: the timeout fired", el, timeout)
	}
}
