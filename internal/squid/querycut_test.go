package squid_test

import (
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
// root had gathered: its own and those of the children that answered.
func TestQueryCutTearsDown(t *testing.T) {
	const link = 10 * time.Millisecond
	des := onEventCore(t, sim.Config{Nodes: 100, Space: schedSpace(t), Seed: 3, Trace: true,
		Engine: squid.Options{QueryDeadline: 50 * link},
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
	var (
		queries []dispatch              // every ClusterQueryMsg, bare or routed
		cancels []dispatch              // every hop of every QueryCancelMsg
		replies = map[uint64][]string{} // SubResultMsg matches sent to the root, by token
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
			}
		case squid.QueryCancelMsg:
			if m.QID == qid {
				cancels = append(cancels, dispatch{at, from, to, m.ReplyTo, m.Token})
			}
		case *squid.SubResultMsg:
			if m.QID == qid && to == root {
				replies[m.Token] = append([]string(nil), sortedData(m.Matches)...)
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
