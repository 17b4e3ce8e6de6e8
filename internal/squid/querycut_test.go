package squid_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"squid/internal/chord"
	"squid/internal/keyspace"
	"squid/internal/sim"
	"squid/internal/squid"
	"squid/internal/transport"
)

// TestQueryCutTearsDown cuts a Query with its QueryDeadline while subtrees
// are outstanding, on an event-core ring whose links all take the same
// latency, so a message arrives exactly one link after the observer saw it
// sent. The cut root tears its tree down as a stream's does: one
// QueryCancelMsg per outstanding child, one "lost" span per cut child in
// the trace, and no ClusterQueryMsg from a cut subtree once its cancel has
// arrived. The callback still gets ErrPartialResult with every match the
// root had gathered: its own and those of the children that answered. No
// node cancels a child whose ClusterQueryMsg it never sent: a cut that
// falls while a dispatch round waits on an owner probe drops the round's
// buffered messages instead.
func TestQueryCutTearsDown(t *testing.T) {
	const link = 10 * time.Millisecond
	des := onEventCore(t, sim.Config{Nodes: 100, Space: schedSpace(t), Seed: 3, Trace: true,
		Engine: squid.Options{QueryDeadline: 35 * link},
		Net:    transport.FaultConfig{Seed: 1, MinLatency: link, MaxLatency: link}})
	nw := des.Network
	preloadDocs(t, nw, 3000)
	q := keyspace.MustParse("(*, *)")
	root := nw.Peers[0].Addr()

	// What the observer saw of the query's messages. Messages are pooled,
	// so it keeps fields, never the message.
	type dispatch struct {
		at       time.Duration
		from, to transport.Addr
		replyTo  transport.Addr
		token    uint64
	}
	type child struct {
		replyTo transport.Addr
		token   uint64
	}
	var (
		queries []dispatch              // every ClusterQueryMsg, bare or routed
		cancels []dispatch              // every hop of every QueryCancelMsg
		replies = map[uint64][]string{} // SubResultMsg matches sent to the root, linked ones included, by token
		sent    = map[child]bool{}      // every child a ClusterQueryMsg carried so far
		unsent  []child                 // cancelled before any ClusterQueryMsg carried them
	)
	var qid squid.QueryID
	des.Net.SetObserver(func(from, to transport.Addr, msg any) {
		at := des.Core.Elapsed()
		if r, ok := msg.(*chord.RouteMsg); ok {
			msg = r.Payload
		}
		switch m := msg.(type) {
		case *squid.ClusterQueryMsg:
			if m.QID == qid {
				queries = append(queries, dispatch{at, from, to, m.ReplyTo, m.Token})
				sent[child{m.ReplyTo, m.Token}] = true
			}
		case squid.QueryCancelMsg:
			if m.QID == qid {
				cancels = append(cancels, dispatch{at, from, to, m.ReplyTo, m.Token})
				if c := (child{m.ReplyTo, m.Token}); !sent[c] {
					unsent = append(unsent, c)
				}
			}
		case *squid.SubResultMsg:
			if m.QID == qid && to == root {
				var all []squid.Element
				for b := range m.Batches() {
					all = append(all, b...)
				}
				replies[m.Token] = sortedData(all)
			}
		}
	})

	var res squid.Result
	fired := 0
	sim.MustInvoke(nw.Peers[0], func() {
		qid = nw.Peers[0].Engine.Query(q, func(r squid.Result) {
			res = r
			fired++
		})
	})
	des.Run()
	if fired != 1 {
		t.Fatalf("callback fired %d times", fired)
	}
	if !errors.Is(res.Err, squid.ErrPartialResult) {
		t.Fatalf("cut query: err %v, want ErrPartialResult", res.Err)
	}
	if len(unsent) > 0 {
		t.Fatalf("%d cancels for children no ClusterQueryMsg had carried, the first %+v", len(unsent), unsent[0])
	}

	// The root's children, and the first hop of each cancel it sent.
	children := map[uint64]transport.Addr{} // token → the node it was sent to
	for _, d := range queries {
		if d.from == root && d.replyTo == root {
			children[d.token] = d.to
		}
	}
	tr, ok := nw.Traces.Get(qid)
	if !ok {
		t.Fatal("no trace recorded")
	}
	lost := len(tr.Lost())
	if !tr.Partial || lost == 0 || lost == len(children) {
		t.Fatalf("trace: partial %v, %d of the root's %d children lost: the deadline must fall with some answered and some outstanding",
			tr.Partial, lost, len(children))
	}

	// One cancel per cut child, and one lost span.
	cut := map[uint64]int{}
	for _, c := range cancels {
		if c.from == root && c.replyTo == root {
			cut[c.token]++
		}
	}
	if len(cut) != lost {
		t.Fatalf("the root cancelled %d children, its trace lost %d", len(cut), lost)
	}
	for tok, n := range cut {
		if _, ok := children[tok]; !ok || n != 1 {
			t.Errorf("child %d: %d cancels from the root (a child of the root: %v), want 1", tok, n, ok)
		}
	}
	for tok := range children {
		_, answered := replies[tok]
		if _, cancelled := cut[tok]; !answered && !cancelled {
			t.Errorf("child %d neither answered nor was cancelled", tok)
		}
	}

	// The matches the root gathered: its own, and every answered child's.
	got := sortedData(res.Matches)
	inResult := map[string]bool{}
	for _, d := range got {
		if inResult[d] {
			t.Fatalf("%s delivered twice", d)
		}
		inResult[d] = true
	}
	want := tr.Root().Matches
	for tok, data := range replies {
		if _, cancelled := cut[tok]; cancelled {
			continue // a straggler: sent before its cancel arrived, read by nobody
		}
		want += len(data)
		for _, d := range data {
			if !inResult[d] {
				t.Errorf("child %d's match %s is missing from the result", tok, d)
			}
		}
	}
	if len(got) != want {
		t.Errorf("result holds %d matches, the root gathered %d", len(got), want)
	}
	all := map[string]bool{}
	for _, d := range sortedData(nw.BruteForceMatches(q)) {
		all[d] = true
	}
	for _, d := range got {
		if !all[d] {
			t.Errorf("%s does not match the query", d)
		}
	}

	// A cut subtree sends no ClusterQueryMsg once its cancel has arrived.
	// A node that hosts other subtrees of the query may still dispatch for
	// them until their own cancels arrive, so only nodes that received
	// exactly one of the query's cluster batches are checked.
	hosted := map[transport.Addr]int{}
	for _, d := range queries {
		hosted[d.to]++
	}
	checked := 0
	for tok := range cut {
		node := children[tok]
		if hosted[node] != 1 {
			continue
		}
		arrived := time.Duration(-1)
		for _, c := range cancels {
			if c.token == tok && c.replyTo == root && c.to == node {
				arrived = c.at + link
			}
		}
		if arrived < 0 {
			t.Errorf("child %d: its cancel never reached %s", tok, node)
			continue
		}
		checked++
		for _, d := range queries {
			if d.from == node && d.replyTo == node && d.at > arrived {
				t.Errorf("child %d at %s dispatched at %v, after its cancel arrived at %v", tok, node, d.at, arrived)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no cut child was checked for dispatches after its cancel")
	}
	t.Logf("%d children, %d cut, %d checked; %d of %d matches", len(children), len(cut), checked, len(got), len(all))
}

// TestCutMidRoundCursor cuts a stream at every 5 ms of its first 300 ms on
// an event-core ring whose links all take 10 ms, so some cuts fall while
// the root's dispatch round waits on an owner probe, with runs buffered
// for a flush that will send nothing. Resuming from each cut's cursor must
// deliver every match the cut stream did not: the cut point takes the
// round's lowest unsent cluster, which no child covers. The root starts
// from 64 coarse clusters, so its first round buffers several runs before
// it flushes. Both an unlimited
// stream (its own matches held until its first round ends) and a limited
// one (its later rounds refill the window) are cut.
func TestCutMidRoundCursor(t *testing.T) {
	const link = 10 * time.Millisecond
	des := onEventCore(t, sim.Config{Nodes: 100, Space: schedSpace(t), Seed: 3,
		Engine: squid.Options{InitialClusters: 64}, // a root round of many clusters
		Net:    transport.FaultConfig{Seed: 1, MinLatency: link, MaxLatency: link}})
	nw := des.Network
	preloadDocs(t, nw, 3000)
	q := keyspace.MustParse("(*, c*)")
	want := sortedData(nw.BruteForceMatches(q))
	p := nw.Peers[50]

	// stream runs q from p with opts, cut after cut unless it is negative,
	// adds what it delivers to seen and returns its final cursor.
	stream := func(seen map[string]bool, cut time.Duration, opts ...squid.QueryOption) squid.Cursor {
		var cur squid.Cursor
		done := false
		var qid squid.QueryID
		sim.MustInvoke(p, func() {
			var err error
			qid, err = p.Engine.QueryStreamFunc(context.Background(), q, func(ev squid.StreamEvent) {
				for _, m := range ev.Matches {
					seen[m.Data] = true
				}
				if ev.Done {
					cur, done = ev.Cursor, true
				}
			}, opts...)
			if err != nil {
				t.Fatal(err)
			}
		})
		if cut >= 0 {
			des.Schedule(cut, func() { sim.MustInvoke(p, func() { p.Engine.CancelQuery(qid) }) })
		}
		des.Run()
		if !done {
			t.Fatal("stream never finished")
		}
		return cur
	}
	for _, limit := range []int{0, 400} {
		resumed := 0
		for cut := time.Duration(0); cut <= 300*time.Millisecond; cut += 5 * time.Millisecond {
			seen := map[string]bool{}
			var opts []squid.QueryOption
			if limit > 0 {
				opts = append(opts, squid.Limit(limit))
			}
			cur := stream(seen, cut, opts...)
			before := len(seen)
			for n := 0; !cur.Exhausted(); n++ {
				if n > len(want) {
					t.Fatalf("limit %d, cut at %v: resuming did not converge", limit, cut)
				}
				cur = stream(seen, -1, append(opts, squid.WithCursor(cur))...)
			}
			if len(seen) > before {
				resumed++
			}
			for _, d := range want {
				if !seen[d] {
					t.Fatalf("limit %d, cut at %v: %s is neither delivered before the cut nor after its cursor", limit, cut, d)
				}
			}
		}
		if resumed == 0 {
			t.Fatalf("limit %d: no cut left anything for its cursor to resume", limit)
		}
	}
}
