package dessim_test

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"squid/internal/chord"
	"squid/internal/dessim"
	"squid/internal/keyspace"
	"squid/internal/sim"
	"squid/internal/squid"
	"squid/internal/transport"
	"squid/internal/wire"
	"squid/internal/workload"
)

// TestEveryMessageEncodable drives a small ring through every protocol path —
// joins, a graceful leave, a kill, replication, publish/unpublish, full
// queries, and Limit(k) streams that cancel their remaining subtrees —
// with an observer that encodes every message between distinct members
// through the wire codec. TCP refuses a message the codec declines, so a
// message type that works in simulation but has no codec fails here, in
// tier-1, instead of on a real ring.
func TestEveryMessageEncodable(t *testing.T) {
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := dessim.Build(dessim.Config{
		Nodes: 24,
		Space: space,
		Seed:  31,
		Net:   dessim.NetConfig{Seed: 32, MinLatency: 5 * time.Millisecond, MaxLatency: 40 * time.Millisecond},
		Chord: chord.Config{RPCTimeout: 400 * time.Millisecond, RPCRetries: 3, RPCBackoff: 10 * time.Millisecond},
		Engine: squid.Options{
			Replicas:       2,
			SubtreeTimeout: 8 * time.Second,
			SubtreeRetries: 2,
			QueryDeadline:  2 * time.Minute,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	seen := map[string]int{}
	declined := map[string]bool{}
	var enc wire.Encoder
	nw.Net.SetObserver(func(from, to transport.Addr, msg any) {
		nw.Metrics.Observe(from, to, msg)
		if from == to {
			return // self-sends are Invoke closures and never reach a socket
		}
		k := kind(msg)
		seen[k]++
		enc.Reset()
		if !wire.EncodeMessage(&enc, msg) && !declined[k] {
			declined[k] = true
			t.Errorf("%s has no wire codec (first sent %s -> %s)", k, from, to)
		}
	})

	vocab := workload.NewVocabulary(33, 200, 1.2)
	elems := workload.Elements(workload.KeyTuples(vocab, 34, 2000, 2))
	if err := nw.Preload(elems); err != nil {
		t.Fatal(err)
	}
	nw.PushReplicasAll()

	mask := chord.Space{Bits: space.IndexBits()}.Mask()
	for _, id := range []uint64{0x1234_5678_9abc_def0, 0x8765_4321_0fed_cba9} {
		if _, err := nw.AddPeer(chord.ID(id & mask)); err != nil {
			t.Fatalf("join %x: %v", id, err)
		}
	}
	nw.StabilizeAll(3)

	// Publish through a peer that does not own the element, so it routes.
	extra := squid.Element{Values: []string{"codec", "coverage"}, Data: "probe"}
	idx, err := space.Index(extra.Values)
	if err != nil {
		t.Fatal(err)
	}
	via := 0
	if nw.Peers[via] == nw.SuccessorOf(idx) {
		via = 1
	}
	if err := nw.Publish(via, extra); err != nil {
		t.Fatal(err)
	}
	invoke(t, nw, nw.Peers[1], func(p *sim.Peer) {
		if err := p.Engine.Unpublish(extra); err != nil {
			t.Errorf("unpublish: %v", err)
		}
	})

	gen := workload.NewQueryGen(vocab, 35, 2)
	query := func(q keyspace.Query) {
		if res, _ := nw.Query(2, q); res.Err != nil {
			t.Errorf("query %v: %v", q, res.Err)
		}
	}
	query(gen.Q1())
	query(gen.Q2())
	query(gen.Q3Ranges())
	query(keyspace.Query{keyspace.Exact(elems[0].Values[0]), keyspace.Exact(elems[0].Values[1])})
	all := keyspace.Query{keyspace.Wildcard(), keyspace.Wildcard()}
	for i := 0; i < 3; i++ {
		invoke(t, nw, nw.Peers[3+i], func(p *sim.Peer) {
			if _, err := p.Engine.QueryStreamFunc(context.Background(), all, func(squid.StreamEvent) {}, squid.Limit(2)); err != nil {
				t.Errorf("stream: %v", err)
			}
		})
	}
	// A consumer that walks away while the stream's subtrees are still
	// out, before any has reported.
	invoke(t, nw, nw.Peers[6], func(p *sim.Peer) {
		qid, err := p.Engine.QueryStreamFunc(context.Background(), all, func(squid.StreamEvent) {})
		if err != nil {
			t.Errorf("stream: %v", err)
			return
		}
		nw.Schedule(300*time.Millisecond, func() {
			sim.MustInvoke(p, func() {
				if !p.Engine.CancelQuery(qid) {
					t.Error("the stream finished before its consumer walked away")
				}
			})
		})
	})

	nw.RemovePeer(5)
	nw.KillPeer(7)
	nw.StabilizeAll(3)
	query(gen.Q1())

	kinds := make([]string, 0, len(seen))
	for k := range seen {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		t.Logf("%6d  %s", seen[k], k)
	}
	// The scenario must keep reaching the paths it exists to cover.
	for _, want := range []string{
		"chord.JoinReqMsg", "chord.LeaveMsg", "chord.HandoffMsg", "chord.StateMsg",
		"squid.ReplicaMsg", "*chord.RouteMsg(squid.PublishMsg)", "*chord.RouteMsg(squid.UnpublishMsg)",
		"*squid.ClusterQueryMsg", "*squid.SubResultMsg",
		"*chord.RouteMsg(squid.QueryCancelMsg)",
	} {
		if seen[want] == 0 {
			t.Errorf("scenario sent no %s", want)
		}
	}
}

// kind names a message by type, and a routed envelope by its payload's
// type too.
func kind(msg any) string {
	if m, ok := msg.(*chord.RouteMsg); ok {
		return fmt.Sprintf("%T(%T)", m, m.Payload)
	}
	return fmt.Sprintf("%T", msg)
}

// invoke runs fn on p's delivery context and drains the event queue.
func invoke(t *testing.T, nw *dessim.Network, p *sim.Peer, fn func(*sim.Peer)) {
	t.Helper()
	if err := p.Node.Invoke(func() { fn(p) }); err != nil {
		t.Fatal(err)
	}
	nw.Run()
}
