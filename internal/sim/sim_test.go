package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"squid/internal/chord"
	"squid/internal/keyspace"
	"squid/internal/squid"
	"squid/internal/transport"
)

func testSpace(t testing.TB) *keyspace.Space {
	t.Helper()
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	return space
}

func TestBuildProducesConsistentRing(t *testing.T) {
	nw, err := Build(Config{Nodes: 50, Space: testSpace(t), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(nw.Peers) != 50 {
		t.Fatalf("peers = %d", len(nw.Peers))
	}
	for i := 1; i < len(nw.Peers); i++ {
		if nw.Peers[i].ID() <= nw.Peers[i-1].ID() {
			t.Fatal("peers not sorted by id")
		}
	}
	if err := nw.VerifyConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Config{Nodes: 0, Space: testSpace(t)}); err == nil {
		t.Error("0 nodes should fail")
	}
	if _, err := Build(Config{Nodes: 5}); err == nil {
		t.Error("nil space should fail")
	}
	if _, err := BuildWithIDs(Config{}, []uint64{1, 2}); err == nil {
		t.Error("BuildWithIDs with nil space should fail")
	}
}

func TestBuildWithIDs(t *testing.T) {
	nw, err := BuildWithIDs(Config{Space: testSpace(t)}, []uint64{100, 900, 500})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{100, 500, 900}
	for i, p := range nw.Peers {
		if uint64(p.ID()) != want[i] {
			t.Errorf("peer %d id = %d, want %d", i, p.ID(), want[i])
		}
	}
	if err := nw.VerifyConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestPreloadPlacesAtOracleOwner(t *testing.T) {
	nw, err := Build(Config{Nodes: 20, Space: testSpace(t), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	elems := make([]squid.Element, 0, 100)
	for i := 0; i < 100; i++ {
		elems = append(elems, squid.Element{
			Values: []string{fmt.Sprintf("w%03d", i), "x"},
			Data:   fmt.Sprintf("e%d", i),
		})
	}
	if err := nw.Preload(elems); err != nil {
		t.Fatal(err)
	}
	if err := nw.VerifyConsistent(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, l := range nw.LoadVector() {
		total += l
	}
	if total != nw.TotalKeys() {
		t.Errorf("load vector sum %d != total keys %d", total, nw.TotalKeys())
	}
	if total == 0 {
		t.Error("nothing stored")
	}
}

func TestSuccessorOfMatchesRing(t *testing.T) {
	nw, err := BuildWithIDs(Config{Space: testSpace(t)}, []uint64{100, 500, 900})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		idx  uint64
		want uint64
	}{
		{50, 100}, {100, 100}, {101, 500}, {500, 500}, {700, 900}, {901, 100}, {4_000_000_000, 100},
	}
	for _, c := range cases {
		if got := nw.SuccessorOf(c.idx); uint64(got.ID()) != c.want {
			t.Errorf("SuccessorOf(%d) = %d, want %d", c.idx, got.ID(), c.want)
		}
	}
}

func TestChurnOperations(t *testing.T) {
	nw, err := Build(Config{Nodes: 15, Space: testSpace(t), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	elems := make([]squid.Element, 300)
	rng := rand.New(rand.NewSource(9))
	for i := range elems {
		elems[i] = squid.Element{Values: []string{randWord(rng), randWord(rng)}, Data: fmt.Sprintf("d%d", i)}
	}
	if err := nw.Preload(elems); err != nil {
		t.Fatal(err)
	}
	keys := nw.TotalKeys()

	p, err := nw.AddPeer(chord.ID(rng.Uint64() & ((1 << 32) - 1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(nw.Peers) != 16 {
		t.Errorf("peers = %d after add", len(nw.Peers))
	}
	if nw.TotalKeys() != keys {
		t.Errorf("add changed keys: %d -> %d", keys, nw.TotalKeys())
	}
	// Adding the same id again collides.
	if _, err := nw.AddPeer(p.ID()); err == nil {
		t.Error("duplicate AddPeer should fail")
	}

	nw.RemovePeer(3)
	if len(nw.Peers) != 15 {
		t.Errorf("peers = %d after remove", len(nw.Peers))
	}
	if nw.TotalKeys() != keys {
		t.Errorf("leave lost keys: %d -> %d", keys, nw.TotalKeys())
	}

	// Abrupt failure loses that node's keys but the ring heals.
	victim := 5
	victimLoad := nw.LoadVector()[victim]
	nw.KillPeer(victim)
	nw.StabilizeAll(8)
	if err := nw.VerifyConsistent(); err != nil {
		t.Fatalf("ring not healed after kill: %v", err)
	}
	if got := nw.TotalKeys(); got != keys-victimLoad {
		t.Errorf("after kill: keys = %d, want %d", got, keys-victimLoad)
	}
}

func randWord(rng *rand.Rand) string {
	b := make([]byte, 3+rng.Intn(5))
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

func TestQueryMetricsHelpers(t *testing.T) {
	qm := newQueryMetrics(7)
	qm.RouteMessages = 3
	qm.ProbeMessages = 2
	qm.ClusterMessages = 4
	qm.ProbeReplies = 2
	qm.ResultMessages = 5
	if qm.Messages() != 9 {
		t.Errorf("Messages = %d", qm.Messages())
	}
	if qm.TotalTransmissions() != 16 {
		t.Errorf("TotalTransmissions = %d", qm.TotalTransmissions())
	}
	qm.RoutingNodes[1] = true
	c := qm.clone()
	c.RoutingNodes[2] = true
	if qm.RoutingNodes[2] {
		t.Error("clone shares maps")
	}
}

func TestMetricsReset(t *testing.T) {
	ms := NewMetrics()
	ms.Processed(1, 42, 1, 3)
	if got := ms.ForQuery(1); got.Matches != 3 {
		t.Errorf("Matches = %d", got.Matches)
	}
	ms.Reset()
	if got := ms.ForQuery(1); got.Matches != 0 {
		t.Error("Reset did not clear")
	}
	// Untraced events are dropped.
	ms.Processed(0, 42, 1, 3)
	if got := ms.ForQuery(0); got.Matches != 0 {
		t.Error("qid 0 should not be recorded")
	}
}

func TestPublishRoutesThroughOverlay(t *testing.T) {
	nw, err := Build(Config{Nodes: 10, Space: testSpace(t), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Publish(0, squid.Element{Values: []string{"hello", "world"}, Data: "x"}); err != nil {
		t.Fatal(err)
	}
	nw.Quiesce()
	idx, err := nw.Space.Index([]string{"hello", "world"})
	if err != nil {
		t.Fatal(err)
	}
	owner := nw.SuccessorOf(idx)
	found := make(chan bool, 1)
	owner.Node.Invoke(func() { found <- len(owner.Engine.LocalStore().At(idx)) == 1 })
	if !<-found {
		t.Error("published element not at oracle owner")
	}
	// Bad values error synchronously.
	if err := nw.Publish(0, squid.Element{Values: []string{"b_d", "x"}}); err == nil {
		t.Error("unencodable publish should fail")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(Config{Nodes: 30, Space: testSpace(t), Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(Config{Nodes: 30, Space: testSpace(t), Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Peers {
		if a.Peers[i].ID() != b.Peers[i].ID() {
			t.Fatalf("same seed produced different rings at %d", i)
		}
	}
	c, err := Build(Config{Nodes: 30, Space: testSpace(t), Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Peers {
		if a.Peers[i].ID() != c.Peers[i].ID() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical rings")
	}
}

func TestInstalledFingersCorrect(t *testing.T) {
	nw, err := Build(Config{Nodes: 25, Space: testSpace(t), Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	space := chord.Space{Bits: nw.Space.IndexBits()}
	for _, p := range nw.Peers {
		p := p
		ch := make(chan []chord.NodeRef, 1)
		p.Node.Invoke(func() { ch <- p.Node.Fingers() })
		fingers := <-ch
		for b, f := range fingers {
			target := space.Add(p.ID(), uint64(1)<<uint(b))
			want := nw.SuccessorOf(uint64(target))
			if f.Addr != want.Addr() {
				t.Fatalf("peer %x finger %d -> %s, want %s", uint64(p.ID()), b, f, want.Node.Self())
			}
		}
	}
}

// Regression for the silent-Invoke-drop hang class (squid-lint rpcerr):
// harness helpers pair Invoke with a wait on the driver, so an Invoke
// refused by a dead endpoint must fail loudly instead of deadlocking.
func TestMustInvokePanicsOnDeadPeer(t *testing.T) {
	nw, err := Build(Config{Nodes: 3, Space: testSpace(t), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p := nw.Peers[0]
	nw.drv.Kill(p.Addr())
	defer func() {
		if recover() == nil {
			t.Fatal("MustInvoke on a killed peer did not panic")
		}
	}()
	MustInvoke(p, func() {})
}

func TestMustInvokeRunsOnLivePeer(t *testing.T) {
	nw, err := Build(Config{Nodes: 1, Space: testSpace(t), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	MustInvoke(nw.Peers[0], func() { close(done) })
	<-done
}

// TestMetricsCountBarePayloads: direct sends carry engine payloads bare,
// so the observer must count them by their own types. A wrapping observer
// tallies every ClusterQueryMsg and SubResultMsg of one streamed query;
// the query's metrics must agree with it exactly.
func TestMetricsCountBarePayloads(t *testing.T) {
	nw, err := Build(Config{Nodes: 30, Space: testSpace(t), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	elems := make([]squid.Element, 1500)
	for i := range elems {
		elems[i] = squid.Element{Values: []string{randWord(rng), randWord(rng)}, Data: fmt.Sprintf("d%d", i)}
	}
	if err := nw.Preload(elems); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	clusters, results := map[squid.QueryID]int{}, map[squid.QueryID]int{}
	nw.drv.(*goroutineDriver).in.SetObserver(func(from, to transport.Addr, msg any) {
		nw.Metrics.Observe(from, to, msg)
		mu.Lock()
		defer mu.Unlock()
		switch m := msg.(type) {
		case *squid.ClusterQueryMsg:
			clusters[m.QID]++
		case *squid.SubResultMsg:
			results[m.QID]++
		}
	})
	sr, _ := nw.QueryStream(0, keyspace.MustParse("(*, *)"))
	if sr.Err != nil {
		t.Fatal(sr.Err)
	}
	nw.Quiesce()

	qm := nw.Metrics.ForQuery(sr.QID)
	mu.Lock()
	defer mu.Unlock()
	t.Logf("cluster %d, result %d messages", qm.ClusterMessages, qm.ResultMessages)
	if qm.ClusterMessages == 0 {
		t.Fatal("no ClusterQueryMsg counted: the query never left its root")
	}
	if qm.ClusterMessages != clusters[sr.QID] {
		t.Errorf("ClusterMessages = %d, observer saw %d", qm.ClusterMessages, clusters[sr.QID])
	}
	if qm.ResultMessages != results[sr.QID] {
		t.Errorf("ResultMessages = %d, observer saw %d", qm.ResultMessages, results[sr.QID])
	}
}
