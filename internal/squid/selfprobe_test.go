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

// TestProbeNamingProberRoutes gives one member p of a three-member
// event-core ring a predecessor that does not exist, halfway between its
// live predecessor q and itself, as while a dead predecessor is kept as a
// suspect arc boundary: the arc from q to the ghost belongs to nobody. A
// query from p probes the owner of a key in that gap, and q, whose
// successor is p, answers that p owns it. p must count that answer as a
// failed probe and route the cluster instead, which the hop limit bounds:
// sending the cluster to itself would probe again, get the same answer,
// and never stop. The query ends partial through the recovery deadline.
func TestProbeNamingProberRoutes(t *testing.T) {
	des := onEventCore(t, sim.Config{Nodes: 3, Space: schedSpace(t), Seed: 1,
		Engine: squid.Options{SubtreeTimeout: time.Second, SubtreeRetries: 1},
		Net:    transport.FaultConfig{Seed: 1, MinLatency: 10 * time.Millisecond, MaxLatency: 10 * time.Millisecond}})
	nw := des.Network
	preloadDocs(t, nw, 2000)
	sp := chord.MustSpace(nw.Space.IndexBits())
	p := nw.Peers[0]
	self, q := p.Node.Self(), p.Node.Pred()
	ghost := chord.NodeRef{ID: sp.Add(q.ID, sp.Dist(q.ID, self.ID)/2), Addr: "ghost"}
	sim.MustInvoke(p, func() { p.Node.InstallRing(ghost, p.Node.SuccList(), p.Node.Fingers()) })
	des.Run()
	inGap := func(key chord.ID) bool { return sp.InArc(key, q, ghost) }

	var selfNamed, routed, selfSent int
	des.Net.SetObserver(func(from, to transport.Addr, msg any) {
		switch m := msg.(type) {
		case *chord.FoundMsg:
			if to == self.Addr && m.Owner == self && m.Pred == q {
				selfNamed++
			}
		case *chord.RouteMsg:
			if _, ok := m.Payload.(*squid.ClusterQueryMsg); ok && from == self.Addr && m.Hops == 1 && inGap(m.Key) {
				routed++
			}
		case *squid.ClusterQueryMsg:
			if from == self.Addr && to == self.Addr {
				selfSent++
			}
		}
	})
	var res squid.Result
	fired := false
	sim.MustInvoke(p, func() {
		p.Engine.Query(keyspace.MustParse("(*, *)"), func(r squid.Result) { res, fired = r, true })
	})
	for steps := 0; !fired && steps < 1_000_000 && des.Core.Step(); steps++ {
	}
	if selfSent > 0 {
		t.Fatalf("p sent itself %d ClusterQueryMsgs", selfSent)
	}
	if selfNamed == 0 || routed == 0 {
		t.Fatalf("%d probe answers named p for a key in the gap, p routed %d gap clusters: want both", selfNamed, routed)
	}
	if !fired {
		t.Fatal("the query did not end within a million events")
	}
	if !errors.Is(res.Err, squid.ErrPartialResult) {
		t.Fatalf("query over an unowned gap: err %v, want ErrPartialResult", res.Err)
	}
	if drops := counterSum(nw.Telemetry, "squid_chord_hop_limit_drops_total", "kind", "route"); drops == 0 {
		t.Error("no routed cluster reached the hop limit")
	}
	t.Logf("%d answers named p, %d gap clusters routed, %d of %d matches", selfNamed, routed,
		len(res.Matches), len(nw.BruteForceMatches(keyspace.MustParse("(*, *)"))))
}
