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

// tcpNode bundles a real-TCP peer for the integration test.
type tcpNode struct {
	node *chord.Node
	eng  *squid.Engine
	ep   *transport.TCPEndpoint
}

func startTCPNode(t *testing.T, space *keyspace.Space, id uint64) *tcpNode {
	t.Helper()
	eng := squid.New(space)
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

// clientSink collects replies for the out-of-ring client.
type clientSink struct {
	results chan any
}

func (c *clientSink) Deliver(from transport.Addr, msg any) {
	select {
	case c.results <- msg:
	default:
	}
}

// TestTCPEndToEnd runs the full production path: three squid peers over
// real TCP sockets, protocol joins, client publishes and a flexible query
// through the binary wire protocol — exactly what cmd/squid-node and
// squidctl do.
func TestTCPEndToEnd(t *testing.T) {
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}

	a := startTCPNode(t, space, 1111)
	if err := a.node.Invoke(a.node.Create); err != nil {
		t.Fatal(err)
	}
	for i, id := range []uint64{22222, 44444} {
		n := startTCPNode(t, space, id)
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

	// A non-member client publishes through node A and queries through it,
	// exactly like squidctl.
	sink := &clientSink{results: make(chan any, 4)}
	client, err := transport.ListenTCP("127.0.0.1:0", sink)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	docs := [][2]string{
		{"computer", "network"},
		{"computer", "graphics"},
		{"compiler", "design"},
		{"database", "systems"},
	}
	for i, d := range docs {
		msg := squid.ClientPublishMsg{
			Elem: squid.Element{Values: []string{d[0], d[1]}, Data: fmt.Sprintf("doc%d", i)},
		}
		if err := client.Send(a.ep.Addr(), msg); err != nil {
			t.Fatal(err)
		}
	}

	// Publishes route asynchronously over TCP; poll the query until the
	// expected results appear.
	deadline := time.Now().Add(10 * time.Second)
	var got squid.ClientResultMsg
	for time.Now().Before(deadline) {
		q := squid.ClientQueryMsg{
			Query: "(comp*, *)", ReplyTo: client.Addr(), Token: uint64(time.Now().UnixNano()),
		}
		if err := client.Send(a.ep.Addr(), q); err != nil {
			t.Fatal(err)
		}
		select {
		case raw := <-sink.results:
			res, ok := raw.(squid.ClientResultMsg)
			if !ok {
				continue
			}
			got = res
		case <-time.After(2 * time.Second):
			continue
		}
		if len(got.Matches) == 3 {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if got.Err != "" {
		t.Fatalf("query error: %s", got.Err)
	}
	if len(got.Matches) != 3 {
		t.Fatalf("query over TCP found %d matches, want 3 (%v)", len(got.Matches), got.Matches)
	}

	// Status probe, as squidctl does.
	if err := client.Send(a.ep.Addr(), chord.GetStateMsg{Token: 9, ReplyTo: client.Addr()}); err != nil {
		t.Fatal(err)
	}
	select {
	case raw := <-sink.results:
		st, ok := raw.(chord.StateMsg)
		if !ok {
			t.Fatalf("unexpected reply %T", raw)
		}
		if st.Self.ID != 1111 {
			t.Errorf("status self = %s", st.Self)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no status reply")
	}
}

// TestTCPQueryFlattensLinkedReports runs a full-space query on an
// eight-member TCP ring holding 400 elements. The query's inner subtrees
// link their children's reports behind their own, and the codec must
// flatten each chain into the one match list it sends, so the query
// returns every element.
func TestTCPQueryFlattensLinkedReports(t *testing.T) {
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	const members, elements = 8, 400
	step := (uint64(1) << space.IndexBits()) / members
	a := startTCPNode(t, space, 1111)
	if err := a.node.Invoke(a.node.Create); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i < members; i++ {
		n := startTCPNode(t, space, i*step+1111)
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
	words := []string{"computer", "network", "grid", "data", "zebra", "compiler", "music", "video"}
	for i := 0; i < elements; i++ {
		el := squid.Element{Values: []string{words[i%len(words)], words[i/len(words)%len(words)] + fmt.Sprint(i)},
			Data: fmt.Sprintf("doc%d", i)}
		if err := client.Send(a.ep.Addr(), squid.ClientPublishMsg{Elem: el}); err != nil {
			t.Fatal(err)
		}
	}

	// Publishes route asynchronously; poll until every one has landed.
	var got squid.ClientResultMsg
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Millisecond) {
		q := squid.ClientQueryMsg{Query: "(*, *)", ReplyTo: client.Addr(), Token: uint64(time.Now().UnixNano())}
		if err := client.Send(a.ep.Addr(), q); err != nil {
			t.Fatal(err)
		}
		select {
		case raw := <-sink.results:
			if res, ok := raw.(squid.ClientResultMsg); ok {
				got = res
			}
		case <-time.After(2 * time.Second):
		}
		if len(got.Matches) == elements {
			break
		}
	}
	if got.Err != "" || len(got.Matches) != elements {
		t.Fatalf("full-space query over TCP: %d matches (err %q), want %d", len(got.Matches), got.Err, elements)
	}
	seen := map[string]bool{}
	for _, m := range got.Matches {
		if seen[m.Data] {
			t.Fatalf("%s returned twice", m.Data)
		}
		seen[m.Data] = true
	}
}
