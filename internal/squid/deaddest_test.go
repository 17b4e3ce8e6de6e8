package squid_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"squid/internal/dessim"
	"squid/internal/keyspace"
	"squid/internal/squid"
	"squid/internal/transport"
)

// TestDispatchDestinationDiesBeforeFlush drives a dispatch round whose
// destination dies between its probe and the flush. On a discrete-event
// ring the root's first destination is killed from the dispatch hook, so
// the send fails: the child buffered for it must be untracked and its
// clusters blind-routed through the ring. Stabilization then heals the ring
// in virtual time (promoting the dead node's replicas at its successor)
// well before the children's recovery deadline, so the blind routes lost
// to the stale ring are re-dispatched to the new owner and the query
// completes exactly. A child left tracked would be answered twice and
// count the dead node's matches twice.
func TestDispatchDestinationDiesBeforeFlush(t *testing.T) {
	nw, victim := ringLosingFirstDestination(t)
	q := keyspace.MustParse("(*, *)")
	want := len(nw.BruteForceMatches(q))

	res, _ := nw.Query(0, q)
	if *victim == "" {
		t.Fatal("the query flushed no dispatch round")
	}
	if res.Err != nil {
		t.Fatalf("query with a destination dead at flush: %v", res.Err)
	}
	if len(res.Matches) != want {
		t.Errorf("got %d matches, want %d", len(res.Matches), want)
	}
	for _, p := range nw.Peers {
		if p.Addr() == *victim {
			continue
		}
		if n := p.Engine.OpenChildren(); n != 0 {
			t.Errorf("peer %s still tracks %d children after the query", p.Addr(), n)
		}
	}
}

// ringLosingFirstDestination builds a 16-member discrete-event ring with
// 1,500 replicated elements and recovery deadlines armed, and sets the
// first peer's dispatch hook to kill the first destination of the first
// round it flushes, then to stabilize the survivors every virtual
// millisecond for 8 ms. The returned address is the victim, once killed.
func ringLosingFirstDestination(t *testing.T) (*dessim.Network, *transport.Addr) {
	t.Helper()
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := dessim.Build(dessim.Config{
		Nodes: 16, Space: space, Seed: 5,
		Engine: squid.Options{Replicas: 1, SubtreeTimeout: 50 * time.Millisecond, SubtreeRetries: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	elems := make([]squid.Element, 0, 1500)
	for i := 0; i < cap(elems); i++ {
		elems = append(elems, squid.Element{
			Values: []string{testVocab[rng.Intn(len(testVocab))], testVocab[rng.Intn(len(testVocab))]},
			Data:   fmt.Sprintf("doc%d", i),
		})
	}
	if err := nw.Preload(elems); err != nil {
		t.Fatal(err)
	}
	nw.PushReplicasAll()

	victim := new(transport.Addr)
	nw.Peers[0].Engine.SetDebugDispatch(func(dests []transport.Addr, _ int) {
		if *victim != "" {
			return
		}
		*victim = dests[0]
		nw.Net.Kill(*victim)
		for r := 1; r <= 8; r++ {
			nw.Schedule(time.Duration(r)*time.Millisecond, func() {
				for _, p := range nw.Peers {
					if p.Addr() != *victim {
						p.Node.CheckPredecessor()
						p.Node.Stabilize()
						p.Node.FixFingers()
					}
				}
			})
		}
	})
	return nw, victim
}
