package squid_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"squid/internal/keyspace"
	"squid/internal/sfc"
	"squid/internal/sim"
	"squid/internal/squid"
)

// buildReplicated creates a network with the given replication degree and
// a known corpus.
func buildReplicated(t *testing.T, nodes, elems, replicas int) *sim.Network {
	t.Helper()
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := sim.Build(sim.Config{
		Nodes: nodes, Space: space, Seed: 42,
		Engine: squid.Options{Replicas: replicas},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	batch := make([]squid.Element, 0, elems)
	for i := 0; i < elems; i++ {
		batch = append(batch, squid.Element{
			Values: []string{testVocab[rng.Intn(len(testVocab))], testVocab[rng.Intn(len(testVocab))]},
			Data:   fmt.Sprintf("doc%d", i),
		})
	}
	if err := nw.Preload(batch); err != nil {
		t.Fatal(err)
	}
	if replicas > 0 {
		nw.PushReplicasAll()
	}
	return nw
}

// TestReplicationSurvivesFailure is the fault-tolerance extension the
// paper lists as future work: with successor replication, an abrupt node
// failure loses no data — queries stay complete after the ring heals.
func TestReplicationSurvivesFailure(t *testing.T) {
	const elems = 2000
	nw := buildReplicated(t, 30, elems, 2)
	keysBefore := nw.TotalKeys()
	q := keyspace.MustParse("(*, *)")
	if got := len(nw.BruteForceMatches(q)); got != elems {
		t.Fatalf("setup: %d elements stored", got)
	}

	// Kill the most loaded peer: without replication its data would vanish.
	loads := nw.LoadVector()
	victim := 0
	for i, l := range loads {
		if l > loads[victim] {
			victim = i
		}
	}
	if loads[victim] == 0 {
		t.Fatal("victim holds nothing")
	}
	nw.KillPeer(victim)
	nw.StabilizeAll(8)
	if err := nw.VerifyConsistent(); err != nil {
		t.Fatalf("ring not healed: %v", err)
	}

	if got := nw.TotalKeys(); got != keysBefore {
		t.Errorf("keys after failure = %d, want %d (promotion failed)", got, keysBefore)
	}
	res, _ := nw.Query(0, q)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Matches) != elems {
		t.Errorf("after failure the wildcard query found %d/%d elements", len(res.Matches), elems)
	}
	// No duplicates either: promotion must be exactly-once.
	seen := map[string]int{}
	for _, m := range res.Matches {
		seen[m.Data]++
	}
	for id, c := range seen {
		if c != 1 {
			t.Errorf("element %s returned %d times", id, c)
		}
	}
}

// TestWithoutReplicationFailureLosesData is the control: the same failure
// without replication loses the victim's keys (motivating the extension).
func TestWithoutReplicationFailureLosesData(t *testing.T) {
	nw := buildReplicated(t, 30, 2000, 0)
	keysBefore := nw.TotalKeys()
	loads := nw.LoadVector()
	victim := 0
	for i, l := range loads {
		if l > loads[victim] {
			victim = i
		}
	}
	lost := loads[victim]
	nw.KillPeer(victim)
	nw.StabilizeAll(8)
	if got := nw.TotalKeys(); got != keysBefore-lost {
		t.Errorf("keys after failure = %d, want %d", got, keysBefore-lost)
	}
}

// TestReplicationSurvivesMultipleFailures kills several peers in sequence
// with stabilization (and re-replication) between failures.
func TestReplicationSurvivesMultipleFailures(t *testing.T) {
	const elems = 1500
	nw := buildReplicated(t, 25, elems, 2)
	q := keyspace.MustParse("(*, *)")
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 3; round++ {
		nw.KillPeer(rng.Intn(len(nw.Peers)))
		nw.StabilizeAll(8)
		nw.PushReplicasAll() // replication degree recovery between failures
	}
	if err := nw.VerifyConsistent(); err != nil {
		t.Fatalf("ring not healed: %v", err)
	}
	res, _ := nw.Query(0, q)
	if len(res.Matches) != elems {
		t.Errorf("after 3 failures found %d/%d elements", len(res.Matches), elems)
	}
}

// TestReplicationDoesNotDuplicateQueries ensures replicas are invisible to
// queries in the healthy case.
func TestReplicationDoesNotDuplicateQueries(t *testing.T) {
	nw := buildReplicated(t, 20, 1000, 3)
	for _, qs := range []string{"(*, *)", "(comp*, *)", "(data, *)"} {
		q := keyspace.MustParse(qs)
		want := len(nw.BruteForceMatches(q))
		res, _ := nw.Query(0, q)
		if len(res.Matches) != want {
			t.Errorf("%s: %d matches, want %d", qs, len(res.Matches), want)
		}
		seen := map[string]bool{}
		for _, m := range res.Matches {
			if seen[m.Data] {
				t.Errorf("%s: duplicate %s", qs, m.Data)
			}
			seen[m.Data] = true
		}
	}
}

// pushAllCounting runs PushReplicas on every peer and aggregates how many
// items were pushed and how many peers fell back to a full push.
func pushAllCounting(nw *sim.Network) (items, fulls int) {
	for _, p := range nw.Peers {
		p := p
		ch := make(chan [2]int, 1)
		p.Node.Invoke(func() {
			n, full := p.Engine.PushReplicas()
			f := 0
			if full {
				f = 1
			}
			ch <- [2]int{n, f}
		})
		v := <-ch
		items += v[0]
		fulls += v[1]
	}
	nw.Quiesce()
	return items, fulls
}

// replicaContents captures every peer's replica buffer as key/payload sets,
// keyed by peer address.
func replicaContents(nw *sim.Network) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	for _, p := range nw.Peers {
		p := p
		set := make(map[string]bool)
		done := make(chan struct{})
		p.Node.Invoke(func() {
			p.Engine.ReplicaStore().ScanSpan(sfc.Interval{Lo: 0, Hi: ^uint64(0)}, func(k uint64, e squid.Element) {
				set[fmt.Sprintf("%d/%s", k, e.Data)] = true
			})
			close(done)
		})
		<-done
		out[string(p.Addr())] = set
	}
	return out
}

// TestDeltaReplicationSteadyState pins the delta protocol's cost model: a
// tick with no mutations and no ring changes pushes nothing (in particular
// it does not snapshot the store), a publish costs one delta item at its
// owner, and a ring change falls back to a full push.
func TestDeltaReplicationSteadyState(t *testing.T) {
	nw := buildReplicated(t, 20, 1000, 2)

	// Steady state: nothing dirty, replica sets unchanged since the
	// initial PushReplicasAll.
	items, fulls := pushAllCounting(nw)
	if items != 0 || fulls != 0 {
		t.Fatalf("steady-state tick pushed %d items (%d full pushes), want 0/0", items, fulls)
	}

	// One publish dirties exactly one key at its owner.
	if err := nw.Publish(0, squid.Element{Values: []string{"computer", "network"}, Data: "fresh"}); err != nil {
		t.Fatal(err)
	}
	nw.Quiesce()
	items, fulls = pushAllCounting(nw)
	if items != 1 || fulls != 0 {
		t.Fatalf("post-publish tick pushed %d items (%d full pushes), want 1 delta item", items, fulls)
	}

	// A ring change makes the affected peers push full snapshots again.
	nw.KillPeer(len(nw.Peers) / 2)
	nw.StabilizeAll(8)
	if err := nw.VerifyConsistent(); err != nil {
		t.Fatal(err)
	}
	_, fulls = pushAllCounting(nw)
	if fulls == 0 {
		t.Fatal("no peer full-pushed after its successor list changed")
	}
	// And the tick after that is quiet again (promotions during healing may
	// leave a few dirty keys behind; they drain in one delta tick).
	pushAllCounting(nw)
	items, fulls = pushAllCounting(nw)
	if items != 0 || fulls != 0 {
		t.Fatalf("post-heal steady tick pushed %d items (%d full pushes), want 0/0", items, fulls)
	}
}

// TestDeltaReplicationConverges checks the delta protocol reaches the same
// replica placement as full pushes: after churn rounds replicated with
// deltas, forcing a full push on every peer changes nothing.
func TestDeltaReplicationConverges(t *testing.T) {
	nw := buildReplicated(t, 25, 1500, 2)
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 3; round++ {
		nw.KillPeer(rng.Intn(len(nw.Peers)))
		for i := 0; i < 5; i++ {
			elem := squid.Element{
				Values: []string{testVocab[rng.Intn(len(testVocab))], testVocab[rng.Intn(len(testVocab))]},
				Data:   fmt.Sprintf("churn%d-%d", round, i),
			}
			if err := nw.Publish(0, elem); err != nil {
				t.Fatal(err)
			}
		}
		nw.Quiesce()
		nw.StabilizeAll(8)
		nw.PushReplicasAll() // delta path with full fallback on set changes
	}
	if err := nw.VerifyConsistent(); err != nil {
		t.Fatal(err)
	}
	// Let any outstanding deltas drain, then compare against full pushes.
	nw.PushReplicasAll()
	before := replicaContents(nw)
	for _, p := range nw.Peers {
		p := p
		p.Node.Invoke(func() { p.Engine.PushReplicasFull() })
	}
	nw.Quiesce()
	after := replicaContents(nw)
	for addr, want := range after {
		got := before[addr]
		for item := range want {
			if !got[item] {
				t.Errorf("peer %s: delta replication missed %s (full push added it)", addr, item)
			}
		}
		for item := range got {
			if !want[item] {
				t.Errorf("peer %s: delta replication left stale %s", addr, item)
			}
		}
	}
}

// onPeer runs fn on p's delivery goroutine and waits for it.
func onPeer(p *sim.Peer, fn func()) {
	done := make(chan struct{})
	sim.MustInvoke(p, func() { fn(); close(done) })
	<-done
}

// TestDeltaReplicationAfterReconcile: re-routing restored items does not
// stop delta replication. On a two-member ring with one replica, a member
// that loads the other's image re-routes what it does not own; a later
// publish it owns is then delta-pushed by its next PushReplicas.
func TestDeltaReplicationAfterReconcile(t *testing.T) {
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	elems := make([]squid.Element, 50)
	idx := make([]uint64, len(elems))
	for i := range elems {
		elems[i] = squid.Element{Values: []string{testVocab[i%len(testVocab)], fmt.Sprintf("w%02d", i)}, Data: fmt.Sprintf("d%d", i)}
		if idx[i], err = space.Index(elems[i].Values); err != nil {
			t.Fatal(err)
		}
	}
	// The members split the elements' keys: the second owns (lo, hi].
	sorted := slices.Clone(idx)
	slices.Sort(sorted)
	lo, hi := sorted[10], sorted[40]
	nw, err := sim.BuildWithIDs(sim.Config{Space: space, Engine: squid.Options{Replicas: 1}}, []uint64{lo, hi})
	if err != nil {
		t.Fatal(err)
	}
	var owned squid.Element // an element whose key the second member owns
	for i, e := range elems {
		if idx[i] > lo && idx[i] <= hi {
			owned = e
		}
		if err := nw.Publish(0, e); err != nil {
			t.Fatal(err)
		}
	}
	nw.Quiesce()
	nw.PushReplicasAll()

	p0, p1 := nw.Peers[0], nw.Peers[1]
	var buf bytes.Buffer
	var moved int
	onPeer(p0, func() { err = p0.Engine.SaveState(&buf) })
	if err != nil {
		t.Fatal(err)
	}
	onPeer(p1, func() {
		if err = p1.Engine.LoadState(&buf); err == nil {
			moved = p1.Engine.ReconcileOwnership()
			p1.Engine.PushReplicas() // drains what the load queued
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.Quiesce()
	if moved == 0 {
		t.Fatal("reconcile re-routed nothing")
	}

	owned.Data = "fresh"
	if err := nw.Publish(0, owned); err != nil {
		t.Fatal(err)
	}
	nw.Quiesce()
	var items int
	var full bool
	onPeer(p1, func() { items, full = p1.Engine.PushReplicas() })
	if items != 1 || full {
		t.Fatalf("push after reconcile and one publish: %d items (full %v), want 1 delta item", items, full)
	}
}

// TestCacheOnlyEngineQueuesNothing: the result cache keeps an engine
// without replicas free of replication bookkeeping. After a preload, a
// publish and an unpublish, no peer holds a key for a delta push.
func TestCacheOnlyEngineQueuesNothing(t *testing.T) {
	nw := buildNetwork(t, 8, 500, squid.Options{ResultCacheSize: 64})
	e := squid.Element{Values: []string{"computer", "network"}, Data: "fresh"}
	if err := nw.Publish(0, e); err != nil {
		t.Fatal(err)
	}
	p := nw.Peers[0]
	sim.MustInvoke(p, func() { _ = p.Engine.Unpublish(e) })
	nw.Quiesce()
	for _, p := range nw.Peers {
		var n int
		onPeer(p, func() { n = p.Engine.QueuedReplicaKeys() })
		if n != 0 {
			t.Errorf("peer %s queued %d keys for replication, want 0", p.Addr(), n)
		}
	}
}
