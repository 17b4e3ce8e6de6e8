package squid_test

import (
	"fmt"
	"testing"
	"time"

	"squid/internal/chord"
	"squid/internal/keyspace"
	"squid/internal/squid"
	"squid/internal/transport"
)

// TestTCPClientQueryLimit drives the client protocol's top-k path over real
// TCP sockets and the real clock: a ClientQueryMsg with Limit set must come
// back with at most Limit matches, promptly — not after recovery deadlines.
// The streaming machinery behaves differently here than under the simulator
// (scheduler workers, wall-clock deadlines, concurrent delivery), which is
// exactly what this test pins.
func TestTCPClientQueryLimit(t *testing.T) {
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Match squid-node's engine configuration: wall-clock recovery deadlines
	// and replication are what distinguish a real deployment from the
	// simulator's quiesced rings.
	startNode := func(id uint64) *tcpNode {
		t.Helper()
		eng := squid.New(space,
			squid.WithReplication(1),
			squid.WithSubtreeTimeout(5*time.Second),
			squid.WithQueryDeadline(60*time.Second),
		)
		node := chord.NewNode(chord.Config{
			Space:      chord.Space{Bits: space.IndexBits()},
			RPCTimeout: 5 * time.Second,
		}, chord.ID(id), eng)
		eng.Attach(node)
		ep, err := transport.ListenTCP("127.0.0.1:0", node)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		node.Start(ep)
		return &tcpNode{node: node, eng: eng, ep: ep}
	}

	a := startNode(1111)
	if err := a.node.Invoke(a.node.Create); err != nil {
		t.Fatal(err)
	}
	for i, id := range []uint64{22222, 44444} {
		n := startNode(id)
		done := make(chan error, 1)
		n.node.Invoke(func() {
			n.node.Join(a.ep.Addr(), func(err error) { done <- err })
		})
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("join %d: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("join %d timed out", i)
		}
	}

	sink := &clientSink{results: make(chan any, 4)}
	client, err := transport.ListenTCP("127.0.0.1:0", sink)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	docs := [][2]string{
		{"computer", "network"},
		{"computer", "networks"},
		{"computer", "graphics"},
		{"compiler", "design"},
		{"computation", "theory"},
	}
	for i, d := range docs {
		msg := squid.ClientPublishMsg{
			Elem: squid.Element{Values: []string{d[0], d[1]}, Data: fmt.Sprintf("doc%d", i)},
		}
		if err := client.Send(a.ep.Addr(), msg); err != nil {
			t.Fatal(err)
		}
	}

	// Publishes route asynchronously; wait until an unlimited query sees the
	// whole corpus before asserting on the limited one.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		q := squid.ClientQueryMsg{
			Query: "(comp*, *)", ReplyTo: client.Addr(), Token: 1,
		}
		if err := client.Send(a.ep.Addr(), q); err != nil {
			t.Fatal(err)
		}
		var n int
		select {
		case raw := <-sink.results:
			if res, ok := raw.(squid.ClientResultMsg); ok {
				n = len(res.Matches)
			}
		case <-time.After(2 * time.Second):
		}
		if n == len(docs) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}

	for _, limit := range []int{1, 2, 10} {
		q := squid.ClientQueryMsg{
			Query: "(comp*, *)", ReplyTo: client.Addr(), Token: uint64(100 + limit), Limit: limit,
		}
		if err := client.Send(a.ep.Addr(), q); err != nil {
			t.Fatal(err)
		}
		select {
		case raw := <-sink.results:
			res, ok := raw.(squid.ClientResultMsg)
			if !ok {
				t.Fatalf("limit %d: unexpected reply %T", limit, raw)
			}
			if res.Err != "" {
				t.Fatalf("limit %d: query error: %s", limit, res.Err)
			}
			want := limit
			if want > len(docs) {
				want = len(docs)
			}
			if len(res.Matches) != want {
				t.Fatalf("limit %d: got %d matches, want %d (%v)", limit, len(res.Matches), want, res.Matches)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("limit %d: no reply within 5s (stream stalled)", limit)
		}
	}
}
