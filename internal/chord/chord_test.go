package chord

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"squid/internal/transport"
)

func TestSpaceArithmetic(t *testing.T) {
	s := MustSpace(4) // ring of 16
	if s.Mask() != 15 {
		t.Errorf("Mask = %d", s.Mask())
	}
	if s.Fold(17) != 1 {
		t.Errorf("Fold(17) = %d", s.Fold(17))
	}
	if s.Add(14, 3) != 1 {
		t.Errorf("Add(14,3) = %d", s.Add(14, 3))
	}
	if s.Dist(14, 2) != 4 {
		t.Errorf("Dist(14,2) = %d", s.Dist(14, 2))
	}
	if s.Dist(2, 14) != 12 {
		t.Errorf("Dist(2,14) = %d", s.Dist(2, 14))
	}

	// Between: (a, b] clockwise.
	cases := []struct {
		x, a, b ID
		want    bool
	}{
		{5, 3, 8, true},
		{3, 3, 8, false},
		{8, 3, 8, true},
		{9, 3, 8, false},
		{1, 14, 2, true},  // wraps
		{15, 14, 2, true}, // wraps
		{14, 14, 2, false},
		{2, 14, 2, true},
		{7, 14, 2, false},
		{9, 9, 9, true}, // full ring
		{0, 9, 9, true},
	}
	for _, c := range cases {
		if got := s.Between(c.x, c.a, c.b); got != c.want {
			t.Errorf("Between(%d, %d, %d) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}

	// BetweenOpen: (a, b) strict.
	openCases := []struct {
		x, a, b ID
		want    bool
	}{
		{5, 3, 8, true},
		{8, 3, 8, false},
		{3, 3, 8, false},
		{15, 14, 2, true},
		{2, 14, 2, false},
		{9, 9, 9, false},
		{0, 9, 9, true},
	}
	for _, c := range openCases {
		if got := s.BetweenOpen(c.x, c.a, c.b); got != c.want {
			t.Errorf("BetweenOpen(%d, %d, %d) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}

	if _, err := NewSpace(0); err == nil {
		t.Error("NewSpace(0) should fail")
	}
	if _, err := NewSpace(65); err == nil {
		t.Error("NewSpace(65) should fail")
	}
	s64 := MustSpace(64)
	if s64.Mask() != ^uint64(0) {
		t.Error("64-bit mask wrong")
	}
	if s64.Dist(ID(^uint64(0)), 0) != 1 {
		t.Errorf("64-bit wrap distance wrong")
	}
}

// kvApp is a tiny storage application: it records routed strings under
// their keys and supports handover, so tests can verify data ownership
// migrates correctly.
type kvApp struct {
	space Space
	mu    sync.Mutex
	store map[ID][]string
}

func newKVApp(space Space) *kvApp {
	return &kvApp{space: space, store: make(map[ID][]string)}
}

func (a *kvApp) Deliver(from transport.Addr, key ID, payload any) {
	s, ok := payload.(string)
	if !ok {
		return
	}
	a.mu.Lock()
	a.store[key] = append(a.store[key], s)
	a.mu.Unlock()
}

func (a *kvApp) HandoverOut(x, y ID) []Item {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []Item
	for k, vals := range a.store {
		if x == y || a.space.Between(k, x, y) {
			for _, v := range vals {
				out = append(out, Item{Key: k, Value: v})
			}
			delete(a.store, k)
		}
	}
	return out
}

func (a *kvApp) HandoverIn(items []Item) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, it := range items {
		if s, ok := it.Value.(string); ok {
			a.store[it.Key] = append(a.store[it.Key], s)
		}
	}
}

func (a *kvApp) Load() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.store)
}

func (a *kvApp) keys() []ID {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]ID, 0, len(a.store))
	for k := range a.store {
		out = append(out, k)
	}
	return out
}

// testRing bundles an in-process network of protocol-joined nodes.
type testRing struct {
	t     *testing.T
	net   *transport.Inproc
	space Space
	nodes []*Node
	apps  map[transport.Addr]*kvApp
}

func newTestRing(t *testing.T, bits int, ids []uint64) *testRing {
	t.Helper()
	r := &testRing{
		t:     t,
		net:   transport.NewInproc(),
		space: MustSpace(bits),
		apps:  map[transport.Addr]*kvApp{},
	}
	for i, id := range ids {
		app := newKVApp(r.space)
		n := NewNode(Config{Space: r.space}, ID(id), app)
		ep, err := r.net.Listen(transport.Addr(fmt.Sprintf("n%d", i)), n)
		if err != nil {
			t.Fatal(err)
		}
		n.Start(ep)
		r.apps[n.Self().Addr] = app
		if i == 0 {
			if err := n.Invoke(n.Create); err != nil {
				t.Fatal(err)
			}
			r.net.Quiesce()
		} else {
			r.join(n, r.nodes[0].Self().Addr)
		}
		r.nodes = append(r.nodes, n)
	}
	return r
}

func (r *testRing) join(n *Node, seed transport.Addr) {
	r.t.Helper()
	done := make(chan error, 1)
	if err := n.Invoke(func() { n.Join(seed, func(err error) { done <- err }) }); err != nil {
		r.t.Fatal(err)
	}
	if err := <-done; err != nil {
		r.t.Fatalf("join %s: %v", n.Self(), err)
	}
	r.net.Quiesce()
}

type nodeState struct {
	self, pred, succ NodeRef
	succs            []NodeRef
	running          bool
}

func (r *testRing) state(n *Node) nodeState {
	r.t.Helper()
	ch := make(chan nodeState, 1)
	if err := n.Invoke(func() {
		ch <- nodeState{self: n.Self(), pred: n.Pred(), succ: n.Succ(), succs: n.SuccList(), running: n.Running()}
	}); err != nil {
		r.t.Fatal(err)
	}
	return <-ch
}

// verifyRing checks that the live nodes form one consistent cycle in ID
// order with correct predecessors.
func (r *testRing) verifyRing(live []*Node) {
	r.t.Helper()
	sorted := append([]*Node(nil), live...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Self().ID < sorted[j].Self().ID })
	for i, n := range sorted {
		next := sorted[(i+1)%len(sorted)]
		prev := sorted[(i+len(sorted)-1)%len(sorted)]
		st := r.state(n)
		if st.succ.Addr != next.Self().Addr {
			r.t.Errorf("node %s: succ = %s, want %s", n.Self(), st.succ, next.Self())
		}
		if st.pred.Addr != prev.Self().Addr {
			r.t.Errorf("node %s: pred = %s, want %s", n.Self(), st.pred, prev.Self())
		}
	}
}

// ownerOf computes the expected successor of key among the given nodes.
func (r *testRing) ownerOf(key ID, live []*Node) *Node {
	best := live[0]
	bestDist := r.space.Dist(key, live[0].Self().ID)
	for _, n := range live[1:] {
		if d := r.space.Dist(key, n.Self().ID); d < bestDist {
			best, bestDist = n, d
		}
	}
	return best
}

func TestJoinBuildsCorrectRing(t *testing.T) {
	ids := []uint64{100, 500, 900, 300, 700, 50, 650, 999, 205}
	r := newTestRing(t, 10, ids)
	r.verifyRing(r.nodes)
}

func TestRoutingReachesOwner(t *testing.T) {
	ids := []uint64{100, 500, 900, 300, 700, 50, 650}
	r := newTestRing(t, 10, ids)
	rng := rand.New(rand.NewSource(5))
	type placed struct {
		key  ID
		want *Node
	}
	var all []placed
	for i := 0; i < 200; i++ {
		key := ID(rng.Uint64() & r.space.Mask())
		src := r.nodes[rng.Intn(len(r.nodes))]
		if err := src.Invoke(func() { src.Route(key, fmt.Sprintf("v%d", i), 0) }); err != nil {
			t.Fatal(err)
		}
		all = append(all, placed{key, r.ownerOf(key, r.nodes)})
	}
	r.net.Quiesce()
	for _, p := range all {
		app := r.apps[p.want.Self().Addr]
		app.mu.Lock()
		_, ok := app.store[p.key]
		app.mu.Unlock()
		if !ok {
			t.Errorf("key %d not stored at expected owner %s", p.key, p.want.Self())
		}
	}
}

func TestFindSuccessorAgreesWithOracle(t *testing.T) {
	ids := []uint64{100, 500, 900, 300, 700}
	r := newTestRing(t, 10, ids)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		key := ID(rng.Uint64() & r.space.Mask())
		src := r.nodes[rng.Intn(len(r.nodes))]
		ch := make(chan FoundMsg, 1)
		src.Invoke(func() {
			src.FindSuccessor(key, 0, func(m FoundMsg, err error) {
				if err != nil {
					t.Errorf("find: %v", err)
				}
				ch <- m
			})
		})
		got := <-ch
		want := r.ownerOf(key, r.nodes)
		if got.Owner.Addr != want.Self().Addr {
			t.Errorf("successor(%d) = %s, want %s", key, got.Owner, want.Self())
		}
	}
}

func TestJoinTransfersData(t *testing.T) {
	r := newTestRing(t, 10, []uint64{100, 900})
	// Store keys throughout the space.
	n0 := r.nodes[0]
	for k := uint64(0); k < 1024; k += 32 {
		key := ID(k)
		n0.Invoke(func() { n0.Route(key, "x", 0) })
	}
	r.net.Quiesce()

	// A node joining at 500 must take over (100, 500].
	app := newKVApp(r.space)
	n := NewNode(Config{Space: r.space}, 500, app)
	ep, err := r.net.Listen("n500", n)
	if err != nil {
		t.Fatal(err)
	}
	n.Start(ep)
	r.apps[n.Self().Addr] = app
	r.join(n, n0.Self().Addr)
	r.nodes = append(r.nodes, n)
	r.verifyRing(r.nodes)

	for _, k := range app.keys() {
		if !(uint64(k) > 100 && uint64(k) <= 500) {
			t.Errorf("node 500 holds key %d outside its arc (100,500]", k)
		}
	}
	if len(app.keys()) == 0 {
		t.Error("node 500 received no keys")
	}
	// Every key must still be owned by exactly the oracle owner.
	for k := uint64(0); k < 1024; k += 32 {
		want := r.ownerOf(ID(k), r.nodes)
		got := 0
		for addr, a := range r.apps {
			a.mu.Lock()
			_, ok := a.store[ID(k)]
			a.mu.Unlock()
			if ok {
				got++
				if addr != want.Self().Addr {
					t.Errorf("key %d stored at %s, want %s", k, addr, want.Self())
				}
			}
		}
		if got != 1 {
			t.Errorf("key %d stored %d times", k, got)
		}
	}
}

func TestLeaveTransfersDataAndSplicesRing(t *testing.T) {
	ids := []uint64{100, 300, 500, 700, 900}
	r := newTestRing(t, 10, ids)
	n0 := r.nodes[0]
	for k := uint64(0); k < 1024; k += 16 {
		key := ID(k)
		n0.Invoke(func() { n0.Route(key, "x", 0) })
	}
	r.net.Quiesce()

	leaver := r.nodes[2] // id 500
	before := len(r.apps[leaver.Self().Addr].keys())
	if before == 0 {
		t.Fatal("leaver should hold keys")
	}
	leaver.Invoke(leaver.Leave)
	r.net.Quiesce()

	live := []*Node{r.nodes[0], r.nodes[1], r.nodes[3], r.nodes[4]}
	r.verifyRing(live)
	if got := len(r.apps[leaver.Self().Addr].keys()); got != 0 {
		t.Errorf("leaver still holds %d keys", got)
	}
	// Its keys moved to the successor (id 700).
	succApp := r.apps[r.nodes[3].Self().Addr]
	for k := uint64(301); k <= 500; k += 16 {
		key := ID(((k + 15) / 16) * 16)
		if uint64(key) > 500 {
			break
		}
		succApp.mu.Lock()
		_, ok := succApp.store[key]
		succApp.mu.Unlock()
		if uint64(key) > 300 && !ok {
			t.Errorf("key %d not at successor after leave", key)
		}
	}
}

func TestStabilizationRepairsFailure(t *testing.T) {
	ids := []uint64{100, 300, 500, 700, 900, 50, 950, 600}
	r := newTestRing(t, 10, ids)

	// Kill two nodes abruptly.
	dead := map[int]bool{2: true, 5: true}
	for i := range dead {
		r.net.Kill(r.nodes[i].Self().Addr)
	}
	var live []*Node
	for i, n := range r.nodes {
		if !dead[i] {
			live = append(live, n)
		}
	}

	// Run stabilization rounds until the ring heals.
	for round := 0; round < 12; round++ {
		for _, n := range live {
			n := n
			n.Invoke(func() {
				n.CheckPredecessor()
				n.Stabilize()
				n.FixFingers()
			})
		}
		r.net.Quiesce()
	}
	r.verifyRing(live)

	// Routing works again end to end.
	rng := rand.New(rand.NewSource(3))
	type placed struct {
		key  ID
		want *Node
	}
	var all []placed
	for i := 0; i < 50; i++ {
		key := ID(rng.Uint64() & r.space.Mask())
		src := live[rng.Intn(len(live))]
		src.Invoke(func() { src.Route(key, "post-failure", 0) })
		all = append(all, placed{key, r.ownerOf(key, live)})
	}
	r.net.Quiesce()
	for _, p := range all {
		app := r.apps[p.want.Self().Addr]
		app.mu.Lock()
		vals := app.store[p.key]
		app.mu.Unlock()
		found := false
		for _, v := range vals {
			if v == "post-failure" {
				found = true
			}
		}
		if !found {
			t.Errorf("key %d not delivered to %s after failure repair", p.key, p.want.Self())
		}
	}
}

func TestJoinCollisionRefused(t *testing.T) {
	r := newTestRing(t, 10, []uint64{100, 500})
	n := NewNode(Config{Space: r.space}, 500, newKVApp(r.space))
	ep, err := r.net.Listen("dup", n)
	if err != nil {
		t.Fatal(err)
	}
	n.Start(ep)
	done := make(chan error, 1)
	n.Invoke(func() { n.Join(r.nodes[0].Self().Addr, func(err error) { done <- err }) })
	if err := <-done; err == nil {
		t.Error("duplicate-ID join should be refused")
	}
}

func TestJoinUnreachableSeed(t *testing.T) {
	net := transport.NewInproc()
	n := NewNode(Config{Space: MustSpace(10)}, 1, nil)
	ep, _ := net.Listen("solo", n)
	n.Start(ep)
	done := make(chan error, 1)
	n.Invoke(func() { n.Join("ghost", func(err error) { done <- err }) })
	if err := <-done; err == nil {
		t.Error("join via unreachable seed should fail")
	}
}

// TestJoinPastDeadSuccessorEntry: the seed still names a dead member as
// its successor, whose arc the live owner has already taken over, so the
// seed answers the joiner's lookup with the dead member. The joiner's
// request then goes to the seed, whose routing forwards it past the dead
// entry to the live owner, and the join succeeds.
func TestJoinPastDeadSuccessorEntry(t *testing.T) {
	r := newTestRing(t, 10, []uint64{100, 600, 800})
	a, b, c := r.nodes[0], r.nodes[1], r.nodes[2]
	r.net.Kill(b.Self().Addr)
	// c has rectified its predecessor to a; a has not yet dropped b.
	a.Invoke(func() { a.InstallRing(c.Self(), []NodeRef{b.Self(), c.Self()}, nil) })
	c.Invoke(func() { c.InstallRing(a.Self(), []NodeRef{a.Self()}, nil) })
	r.net.Quiesce()
	found := make(chan FoundMsg, 1)
	a.Invoke(func() { a.FindSuccessor(500, 0, func(m FoundMsg, err error) { found <- m }) })
	if m := <-found; m.Owner.Addr != b.Self().Addr {
		t.Fatalf("a answers the lookup for 500 with %v, want the dead %v", m.Owner, b.Self())
	}

	j := NewNode(Config{Space: r.space}, 500, newKVApp(r.space))
	ep, err := r.net.Listen("j", j)
	if err != nil {
		t.Fatal(err)
	}
	j.Start(ep)
	r.join(j, a.Self().Addr)
	if st := r.state(j); st.succ.Addr != c.Self().Addr || st.pred.Addr != a.Self().Addr {
		t.Errorf("joiner linked as pred %v / succ %v, want %v / %v", st.pred, st.succ, a.Self(), c.Self())
	}
}

func TestSequentialGrowthKeepsLookupLogarithmic(t *testing.T) {
	// Grow a ring to 64 nodes and confirm lookups resolve with hop counts
	// far below N (finger tables work).
	rng := rand.New(rand.NewSource(77))
	ids := map[uint64]bool{}
	for len(ids) < 64 {
		ids[rng.Uint64()&((1<<16)-1)] = true
	}
	var list []uint64
	for id := range ids {
		list = append(list, id)
	}
	r := newTestRing(t, 16, list)
	r.verifyRing(r.nodes)

	maxHops := 0
	for i := 0; i < 100; i++ {
		key := ID(rng.Uint64() & r.space.Mask())
		src := r.nodes[rng.Intn(len(r.nodes))]
		ch := make(chan FoundMsg, 1)
		src.Invoke(func() {
			src.FindSuccessor(key, 0, func(m FoundMsg, err error) { ch <- m })
		})
		m := <-ch
		want := r.ownerOf(key, r.nodes)
		if m.Owner.Addr != want.Self().Addr {
			t.Errorf("successor(%d) = %s, want %s", key, m.Owner, want.Self())
		}
		if m.Hops > maxHops {
			maxHops = m.Hops
		}
	}
	if maxHops > 20 {
		t.Errorf("max hops %d too large for 64 nodes (fingers broken?)", maxHops)
	}
}

func TestNodeAccessors(t *testing.T) {
	r := newTestRing(t, 10, []uint64{100, 500})
	n := r.nodes[0]
	if n.Space().Bits != 10 {
		t.Error("Space accessor wrong")
	}
	if n.App() == nil {
		t.Error("App accessor nil")
	}
	ch := make(chan bool, 1)
	n.Invoke(func() {
		ch <- n.Owns(50) && n.Owns(100) && !n.Owns(101) && len(n.Fingers()) == 10
	})
	if !<-ch {
		t.Error("Owns/Fingers wrong for node 100 with pred 500")
	}
	_ = n.String()
	if (NodeRef{}).String() != "<none>" {
		t.Error("zero NodeRef String")
	}
}

// TestSpaceQuickProperties property-tests the ring arithmetic laws the
// protocol relies on.
func TestSpaceQuickProperties(t *testing.T) {
	s := MustSpace(32)
	mask := s.Mask()

	// Dist is a metric-ish cyclic distance: Dist(a,b) + Dist(b,a) == ring
	// size (mod ring) unless a == b.
	f1 := func(a, b uint64) bool {
		x, y := ID(a&mask), ID(b&mask)
		if x == y {
			return s.Dist(x, y) == 0
		}
		return s.Dist(x, y)+s.Dist(y, x) == mask+1
	}
	if err := quick.Check(f1, nil); err != nil {
		t.Error(err)
	}

	// Between partitions the ring: for a != b, any x is in exactly one of
	// (a, b] and (b, a].
	f2 := func(a, b, c uint64) bool {
		x, y, z := ID(a&mask), ID(b&mask), ID(c&mask)
		if x == y {
			return true
		}
		return s.Between(z, x, y) != s.Between(z, y, x)
	}
	if err := quick.Check(f2, nil); err != nil {
		t.Error(err)
	}

	// Add is the inverse of Dist: b == Add(a, Dist(a,b)).
	f3 := func(a, b uint64) bool {
		x, y := ID(a&mask), ID(b&mask)
		return s.Add(x, s.Dist(x, y)) == y
	}
	if err := quick.Check(f3, nil); err != nil {
		t.Error(err)
	}

	// BetweenOpen implies Between, never contains the endpoints.
	f4 := func(a, b, c uint64) bool {
		x, y, z := ID(a&mask), ID(b&mask), ID(c&mask)
		if s.BetweenOpen(z, x, y) {
			return s.Between(z, x, y) && z != x && z != y
		}
		return true
	}
	if err := quick.Check(f4, nil); err != nil {
		t.Error(err)
	}
}
