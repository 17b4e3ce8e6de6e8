package chord

import (
	"testing"
	"time"

	"squid/internal/transport"
)

// TestRetryExhaustion: against a black-hole successor every attempt times
// out; the caller sees the final error and the counters record the cost.
func TestRetryExhaustion(t *testing.T) {
	net := transport.NewInproc()
	space := MustSpace(10)
	if _, err := net.Listen("hole", transport.HandlerFunc(func(transport.Addr, any) {})); err != nil {
		t.Fatal(err)
	}
	n := NewNode(Config{
		Space:      space,
		RPCTimeout: 20 * time.Millisecond,
		RPCRetries: 2,
		RPCBackoff: time.Millisecond,
	}, 5, nil)
	ep, err := net.Listen("n", n)
	if err != nil {
		t.Fatal(err)
	}
	n.Start(ep)
	n.Invoke(n.Create)
	net.Quiesce()
	n.Invoke(func() {
		n.InstallRing(NodeRef{ID: 1, Addr: "hole"}, []NodeRef{{ID: 6, Addr: "hole"}}, nil)
	})
	net.Quiesce()

	errs := make(chan error, 2)
	n.Invoke(func() {
		n.FindSuccessor(8, 0, func(m FoundMsg, err error) { errs <- err })
		n.GetStateOf("hole", func(st StateMsg, err error) { errs <- err })
	})
	for i := 0; i < 2; i++ {
		if err := <-errs; err == nil {
			t.Fatalf("request %d against black hole should fail after retries", i)
		}
	}
	if r, f := n.ctr.findRetries.Value(), n.ctr.findFailures.Value(); r != 2 || f != 1 {
		t.Errorf("find counters = %d retries / %d failures, want 2 / 1", r, f)
	}
	if r, f := n.ctr.stateRetries.Value(), n.ctr.stateFailures.Value(); r != 2 || f != 1 {
		t.Errorf("state counters = %d retries / %d failures, want 2 / 1", r, f)
	}
	// Every attempt's entry left its table: the final failure leaks
	// neither a pending call nor, through it, an armed timer.
	sizes := make(chan [2]int, 1)
	n.Invoke(func() { sizes <- [2]int{len(n.pendingFinds), len(n.pendingStates)} })
	if got := <-sizes; got != [2]int{} {
		t.Errorf("pending finds/states = %d/%d after exhaustion, want 0/0", got[0], got[1])
	}
}

// TestRetryRecovers: a lookup whose first attempts are eaten by a lossy
// link succeeds once the fault clears — the backoff policy rides out the
// outage instead of surfacing it. The lookup needs a remote hop: a names
// b as its successor and b answers for its own successor c, so a cannot
// answer it locally.
func TestRetryRecovers(t *testing.T) {
	net := transport.NewInproc()
	space := MustSpace(10)

	mk := func(name transport.Addr, id ID) *Node {
		n := NewNode(Config{
			Space:      space,
			RPCTimeout: 25 * time.Millisecond,
			RPCRetries: 8,
			RPCBackoff: 5 * time.Millisecond,
		}, id, nil)
		ep, err := net.Listen(name, n)
		if err != nil {
			t.Fatal(err)
		}
		n.Start(ep)
		return n
	}
	a := mk("a", 100)
	b := mk("b", 600)
	c := mk("c", 800)
	for _, n := range []struct{ n, pred, succ, next *Node }{{a, c, b, c}, {b, a, c, a}, {c, b, a, b}} {
		n.n.Invoke(func() {
			n.n.InstallRing(n.pred.Self(), []NodeRef{n.succ.Self(), n.next.Self()}, nil)
		})
	}
	net.Quiesce()

	// Everything a sends to b vanishes; the find must fail over to the
	// retry path rather than resolve.
	net.Faults().SetLinkDrop("a", "b", 1.0)
	done := make(chan FoundMsg, 1)
	a.Invoke(func() {
		a.FindSuccessor(700, 0, func(m FoundMsg, err error) {
			if err != nil {
				t.Errorf("find failed despite retries: %v", err)
			}
			done <- m
		})
	})
	// Let at least one attempt time out, then heal the link.
	time.Sleep(40 * time.Millisecond)
	net.Faults().SetLinkDrop("a", "b", 0)

	select {
	case m := <-done:
		if m.Owner.ID != 800 || m.Pred.ID != 600 {
			t.Fatalf("successor(700) = %v with predecessor %v, want ids 800 and 600", m.Owner, m.Pred)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("find never completed after the link healed")
	}
	if a.ctr.findRetries.Value() == 0 {
		t.Error("recovery consumed no retries — fault was not exercised")
	}
}
