package chord_test

import (
	"testing"

	"squid/internal/chord"
	"squid/internal/dessim"
	"squid/internal/transport"
)

// pairPayload is a two-word application payload: boxing it into an
// interface is the one allocation a direct send cannot avoid.
type pairPayload struct{ a, b uint64 }

// sinkApp keeps the last payload delivered to it and where it came from.
type sinkApp struct {
	chord.NopApp
	from transport.Addr
	last any
	n    int
}

func (s *sinkApp) Deliver(from transport.Addr, _ chord.ID, payload any) {
	s.from, s.last = from, payload
	s.n++
}

// sendAppPair attaches two nodes to an instant, lossless event-core
// network and returns the sender, the receiver's app and the core.
func sendAppPair(tb testing.TB) (*chord.Node, *chord.Node, *sinkApp, *dessim.Core) {
	tb.Helper()
	core := dessim.NewCore()
	net := dessim.NewNet(core, dessim.NetConfig{})
	cfg := chord.Config{Space: chord.MustSpace(10), Clock: core.Clock()}
	sink := &sinkApp{}
	mk := func(name transport.Addr, id chord.ID, app chord.App) *chord.Node {
		n := chord.NewNode(cfg, id, app)
		ep, err := net.Listen(name, n)
		if err != nil {
			tb.Fatal(err)
		}
		n.Start(ep)
		return n
	}
	return mk("a", 100, nil), mk("b", 600, sink), sink, core
}

// TestSendAppAllocs pins the direct-send cost: the payload travels bare,
// so sending it and delivering it to the peer's App allocates only the
// payload's interface box. An envelope around it would read 2.
func TestSendAppAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	a, b, sink, core := sendAppPair(t)
	var i uint64
	send := func() {
		i++
		if !a.SendApp(b.Self().Addr, pairPayload{i, i + 1}) {
			t.Fatal("SendApp refused")
		}
		core.Run()
	}
	send() // grow the event heap and slab once
	if allocs := testing.AllocsPerRun(200, send); allocs != 1 {
		t.Errorf("SendApp + delivery = %.1f allocs, want 1", allocs)
	}
	if sink.from != a.Self().Addr {
		t.Errorf("delivered from %q, want the sender %q", sink.from, a.Self().Addr)
	}
	if p, ok := sink.last.(pairPayload); !ok || p != (pairPayload{i, i + 1}) {
		t.Errorf("delivered %#v, want the bare payload %v", sink.last, pairPayload{i, i + 1})
	}
}

// BenchmarkSendApp measures one direct send and its delivery on the
// event core.
func BenchmarkSendApp(b *testing.B) {
	a, peer, sink, core := sendAppPair(b)
	to := peer.Self().Addr
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.SendApp(to, pairPayload{uint64(i), uint64(i) + 1})
		core.Run()
	}
	if sink.n != b.N {
		b.Fatalf("delivered %d of %d", sink.n, b.N)
	}
}
