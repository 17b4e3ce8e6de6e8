package dessim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"squid/internal/chord"
	"squid/internal/keyspace"
	"squid/internal/sim"
	"squid/internal/squid"
	"squid/internal/transport"
	"squid/internal/workload"
)

func testSpace(t testing.TB) *keyspace.Space {
	t.Helper()
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	return space
}

func TestCoreRunsEventsInOrder(t *testing.T) {
	c := NewCore()
	var got []int
	c.After(30*time.Millisecond, func() { got = append(got, 3) })
	c.After(10*time.Millisecond, func() { got = append(got, 1) })
	c.After(20*time.Millisecond, func() {
		got = append(got, 2)
		// Nested scheduling: relative to the current virtual instant.
		c.After(5*time.Millisecond, func() { got = append(got, 25) })
	})
	if n := c.Run(); n != 4 {
		t.Errorf("Run executed %d events, want 4", n)
	}
	want := []int{1, 2, 25, 3}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", got, want)
	}
	if c.Elapsed() != 30*time.Millisecond {
		t.Errorf("Elapsed = %v, want 30ms", c.Elapsed())
	}
}

func TestCoreSameInstantFIFO(t *testing.T) {
	c := NewCore()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		c.After(0, func() { got = append(got, i) })
	}
	c.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events out of scheduling order: %v", got)
		}
	}
	if c.Elapsed() != 0 {
		t.Errorf("zero-delay events advanced the clock to %v", c.Elapsed())
	}
}

// TestEventIsOneCacheLine pins the event entry at 64 bytes: a timer's
// handler and tag share the line with a delivery's fields.
func TestEventIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 64 {
		t.Errorf("event is %d bytes, want 64", n)
	}
}

// tagCounter counts Fire calls per tag.
type tagCounter map[uint64]int

func (tc tagCounter) Fire(tag uint64) { tc[tag]++ }

func TestCoreTimerStopReset(t *testing.T) {
	c := NewCore()
	clock := c.Clock()
	fired := tagCounter{}
	tm := clock.Arm(10*time.Millisecond, fired, 1)
	if !tm.Stop() {
		t.Error("Stop on pending timer should report true")
	}
	if tm.Stop() {
		t.Error("second Stop should report false")
	}
	c.Run()
	if len(fired) != 0 {
		t.Errorf("stopped timer fired: %v", fired)
	}

	tm = clock.Arm(10*time.Millisecond, fired, 2)
	if !tm.Reset(20 * time.Millisecond) {
		t.Error("Reset on pending timer should report true")
	}
	c.Run()
	if fired[2] != 1 || len(fired) != 1 {
		t.Errorf("reset timer fired %v, want tag 2 once", fired)
	}
	// The stopped timer's drain must not have advanced the clock (a
	// cancelled event is skipped, not executed), so only the reset timer's
	// 20ms elapsed.
	if c.Elapsed() != 20*time.Millisecond {
		t.Errorf("Elapsed = %v, want 20ms", c.Elapsed())
	}
	if c.Pending() != 0 {
		t.Errorf("Pending = %d after drain", c.Pending())
	}

	// A fired handle is stale: its entry was released, and Stop must not
	// cancel the entry's next occupant.
	other := clock.Arm(time.Millisecond, fired, 3)
	if tm.Stop() {
		t.Error("Stop on a fired timer should report false")
	}
	if c.Pending() != 1 {
		t.Errorf("stale Stop cancelled another timer: Pending = %d", c.Pending())
	}
	other.Stop()

	var zero transport.Timer
	if zero.Stop() || zero.Reset(time.Millisecond) {
		t.Error("zero Timer: Stop and Reset should report false")
	}
	if c.Pending() != 0 {
		t.Errorf("zero Timer Reset armed something: Pending = %d", c.Pending())
	}
}

func TestBuildProducesConsistentRing(t *testing.T) {
	nw, err := Build(Config{Nodes: 50, Space: testSpace(t), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(nw.Peers) != 50 {
		t.Fatalf("peers = %d", len(nw.Peers))
	}
	if err := nw.VerifyConsistent(); err != nil {
		t.Fatal(err)
	}
	if vs := nw.CheckRing(); len(vs) != 0 {
		t.Fatalf("fresh ring has violations: %v", vs)
	}
}

func TestQueryMatchesBruteForce(t *testing.T) {
	nw, err := Build(Config{Nodes: 40, Space: testSpace(t), Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	vocab := workload.NewVocabulary(1, 300, 1.2)
	tuples := workload.KeyTuples(vocab, 2, 2000, 2)
	if err := nw.Preload(workload.Elements(tuples)); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewQueryGen(vocab, 3, 2)
	queries := []keyspace.Query{gen.Q1(), gen.Q2(), gen.Q3Keyword(), gen.Q3Ranges()}
	for qi, q := range queries {
		res, qm := nw.Query(qi%len(nw.Peers), q)
		if res.Err != nil {
			t.Fatalf("query %s: %v", q, res.Err)
		}
		want := nw.BruteForceMatches(q)
		if len(res.Matches) != len(want) {
			t.Errorf("query %s: %d matches, brute force %d", q, len(res.Matches), len(want))
		}
		if len(want) > 0 && qm.Messages() == 0 {
			t.Errorf("query %s: matches found with zero messages", q)
		}
	}
}

func TestChurnOperations(t *testing.T) {
	nw, err := Build(Config{Nodes: 15, Space: testSpace(t), Seed: 7, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	vocab := workload.NewVocabulary(1, 200, 1.2)
	if err := nw.Preload(workload.Elements(workload.KeyTuples(vocab, 2, 300, 2))); err != nil {
		t.Fatal(err)
	}
	keys := nw.TotalKeys()
	rng := rand.New(rand.NewSource(9))

	if _, err := nw.AddPeer(chord.ID(rng.Uint64() & ((1 << 32) - 1))); err != nil {
		t.Fatal(err)
	}
	if len(nw.Peers) != 16 {
		t.Errorf("peers = %d after add", len(nw.Peers))
	}
	if nw.TotalKeys() != keys {
		t.Errorf("add changed keys: %d -> %d", keys, nw.TotalKeys())
	}

	nw.RemovePeer(3)
	if nw.TotalKeys() != keys {
		t.Errorf("leave lost keys: %d -> %d", keys, nw.TotalKeys())
	}

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
	if v := nw.RingViolations(); v != 0 {
		t.Errorf("hard ring violations = %d", v)
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
	idx, err := nw.Space.Index([]string{"hello", "world"})
	if err != nil {
		t.Fatal(err)
	}
	owner := nw.SuccessorOf(idx)
	found := false
	sim.MustInvoke(owner, func() { found = len(owner.Engine.LocalStore().At(idx)) == 1 })
	nw.Run()
	if !found {
		t.Error("published element not at oracle owner")
	}
}

// TestLatencyAndFaults drives queries over lossy, slow links, all on
// virtual time: chord RPC retries, subtree recovery, and the query deadline
// fire as scheduled events. Every answer obeys sim.CheckAnswer against the
// brute-force ground truth — no phantom, no duplicate, and a nil-error
// result has full recall — plus the DES-specific checks that latency
// advanced the virtual clock and the fault lottery is accounted.
func TestLatencyAndFaults(t *testing.T) {
	nw, err := Build(Config{
		Nodes: 25,
		Space: testSpace(t),
		Seed:  21,
		Net: NetConfig{
			Seed:       22,
			MinLatency: 10 * time.Millisecond,
			MaxLatency: 120 * time.Millisecond,
			DropRate:   0.15,
		},
		Chord: chord.Config{
			RPCTimeout: 500 * time.Millisecond,
			RPCRetries: 4,
			RPCBackoff: 20 * time.Millisecond,
		},
		Engine: squid.Options{
			SubtreeTimeout: 2 * time.Second,
			SubtreeRetries: 2,
			QueryDeadline:  60 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	vocab := workload.NewVocabulary(1, 200, 1.2)
	if err := nw.Preload(workload.Elements(workload.KeyTuples(vocab, 2, 1000, 2))); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewQueryGen(vocab, 3, 2)
	complete := 0
	for i := 0; i < 40; i++ {
		q := gen.Q2()
		truth := nw.BruteForceMatches(q)
		res, _ := nw.Query(i%len(nw.Peers), q)
		if err := sim.CheckAnswer(res.Matches, res.Err == nil, truth, truth); err != nil {
			t.Fatalf("query %d %s: %v (err %v)", i, q, err, res.Err)
		}
		if res.Err == nil {
			complete++
		}
	}
	if complete == 0 {
		t.Error("no query completed despite full recovery stack")
	}
	if nw.Core.Elapsed() == 0 {
		t.Error("latency injection did not advance virtual time")
	}
	st := nw.Faults.Stats()
	if st.Delayed == 0 {
		t.Error("no messages recorded as delayed")
	}
	if st.Dropped == 0 {
		t.Errorf("drop lottery never fired at 15%% (stats %+v)", st)
	}
}

// TestCrashPartitionFaults exercises the black-hole and partition surface:
// traffic into a crashed or partitioned-away peer is lost and accounted.
// No stabilization runs while the partition is up (a split ring cannot be
// re-merged by Chord), so after healing the untouched ring state is still
// consistent.
func TestCrashPartitionFaults(t *testing.T) {
	nw, err := Build(Config{
		Nodes: 8,
		Space: testSpace(t),
		Seed:  5,
		Chord: chord.Config{RPCTimeout: 200 * time.Millisecond, RPCRetries: 2},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Crash phase. No stabilization runs while the victim is down: in
	// virtual time a round is complete — every RPC timeout inside it fires —
	// so a crashed-but-stabilizing victim would burn through its entire
	// successor list in one round and isolate itself, which no wall-clock
	// round can do. The chaos contract (and the goroutine soak) crash nodes
	// under query traffic, not under their own stabilization.
	victim := nw.Peers[1].Addr()
	nw.Faults.Crash(victim)
	if !nw.Faults.Crashed(victim) {
		t.Fatal("Crashed = false after Crash")
	}
	if res, _ := nw.Query(4, keyspace.MustParse("(*, *)")); res.Err == nil {
		t.Error("whole-space query with a crashed owner reported success")
	}
	if nw.Faults.Stats().CrashDrops == 0 {
		t.Error("traffic into a crashed peer not accounted as crash drops")
	}
	nw.Faults.Restart(victim)
	nw.StabilizeAll(8)
	if err := nw.VerifyConsistent(); err != nil {
		t.Fatalf("ring not consistent after crash restart: %v", err)
	}

	var half []transport.Addr
	for _, p := range nw.Peers[:4] {
		half = append(half, p.Addr())
	}
	nw.Faults.Partition(half)
	// A whole-space query from inside one partition half needs peers in the
	// other half; with no recovery timers configured its result path is
	// severed outright, so the event queue drains without a completion and
	// Query surfaces ErrIncomplete.
	res, _ := nw.Query(0, keyspace.MustParse("(*, *)"))
	if res.Err == nil {
		t.Error("whole-space query across an active partition reported success")
	}
	if nw.Faults.Stats().PartitionDrops == 0 {
		t.Error("cross-partition traffic not accounted")
	}
	nw.Faults.Heal()
	nw.StabilizeAll(8)
	if err := nw.VerifyConsistent(); err != nil {
		t.Fatalf("ring not consistent after heal: %v", err)
	}
}
