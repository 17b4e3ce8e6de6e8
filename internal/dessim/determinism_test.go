package dessim_test

import (
	"fmt"
	"testing"
	"time"

	"squid/internal/chord"
	"squid/internal/dessim"
	"squid/internal/keyspace"
	"squid/internal/squid"
	"squid/internal/workload"
)

// stormFixture builds a 1 000-node ring over lossy, slow links, preloads a
// Zipf corpus, and runs a churn + query storm, returning a byte-exact
// transcript of everything observable: the storm result (with its folded
// per-query fingerprint), event counts, final virtual time, fault
// accounting, ring size, and total stored keys. The storm result and the
// total event count are also returned for pinning.
func stormFixture(t *testing.T, seed int64) (string, dessim.StormResult, uint64) {
	t.Helper()
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := dessim.Build(dessim.Config{
		Nodes: 1000,
		Space: space,
		Seed:  seed,
		Net: dessim.NetConfig{
			Seed:       seed + 1,
			MinLatency: 5 * time.Millisecond,
			MaxLatency: 80 * time.Millisecond,
			DropRate:   0.01,
		},
		Chord: chord.Config{
			RPCTimeout: 400 * time.Millisecond,
			RPCRetries: 3,
			RPCBackoff: 10 * time.Millisecond,
		},
		Engine: squid.Options{
			// Comfortably above a deep query's honest completion time, so
			// retries mean real loss rather than impatience (see the scale
			// test for the full rationale).
			SubtreeTimeout: 8 * time.Second,
			SubtreeRetries: 2,
			QueryDeadline:  2 * time.Minute,
		},
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	vocab := workload.NewVocabulary(seed+2, 500, 1.2)
	if err := nw.Preload(workload.Elements(workload.KeyTuples(vocab, seed+3, 5000, 2))); err != nil {
		t.Fatal(err)
	}
	storm := nw.RunStorm(dessim.StormConfig{
		Seed:            seed + 4,
		Queries:         300,
		Vocab:           vocab,
		Dims:            2,
		Joins:           15,
		Kills:           15,
		StabilizeRounds: 5,
	})
	events := nw.Core.Steps() // before TotalKeys, which runs events of its own
	transcript := fmt.Sprintf("storm{%v} steps=%d vtime=%v faults=%+v peers=%d keys=%d hardViolations=%d",
		storm, events, nw.Core.Elapsed(), nw.Net.Stats(), len(nw.Peers), nw.TotalKeys(),
		nw.RingViolations())
	return transcript, storm, events
}

// checkPinned fails unless a seeded storm reproduced the fingerprint and
// total event count recorded for its seed. Determinism across runs of one
// build is asserted separately; the pin holds the outcome across commits,
// so a refactor that claims to leave the protocol alone can prove it.
func checkPinned(t *testing.T, storm dessim.StormResult, events, wantFP, wantEvents uint64) {
	t.Helper()
	if storm.Fingerprint != wantFP || events != wantEvents {
		t.Errorf("storm fp=%016x events=%d, pinned fp=%016x events=%d: the seeded storm no longer replays "+
			"as recorded. A deliberate protocol change updates these constants in the same commit; "+
			"anything else is a regression", storm.Fingerprint, events, wantFP, wantEvents)
	}
}

// streamStormFixture runs a smaller storm where every other query streams
// with Limit(TopK): delivery and batch counts fold into the fingerprint,
// so any nondeterminism in the streaming path (windowed dispatch, cancel
// teardown, partial forwarding) breaks replay equality.
func streamStormFixture(t *testing.T, seed int64) (dessim.StormResult, string) {
	t.Helper()
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := dessim.Build(dessim.Config{
		Nodes: 200,
		Space: space,
		Seed:  seed,
		Net: dessim.NetConfig{
			Seed:       seed + 1,
			MinLatency: 5 * time.Millisecond,
			MaxLatency: 60 * time.Millisecond,
		},
		Engine: squid.Options{QueryDeadline: 2 * time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	vocab := workload.NewVocabulary(seed+2, 300, 1.2)
	if err := nw.Preload(workload.Elements(workload.KeyTuples(vocab, seed+3, 3000, 2))); err != nil {
		t.Fatal(err)
	}
	storm := nw.RunStorm(dessim.StormConfig{
		Seed:    seed + 4,
		Queries: 120,
		Vocab:   vocab,
		Dims:    2,
		TopK:    5,
	})
	return storm, fmt.Sprintf("storm{%v} steps=%d vtime=%v", storm, nw.Core.Steps(), nw.Core.Elapsed())
}

// TestStreamStormDeterminism extends the determinism contract to the
// streaming mix: Limit(k) streams replay byte-identically, every query
// resolves, and the streamed half is exactly half the storm.
func TestStreamStormDeterminism(t *testing.T) {
	sa, a := streamStormFixture(t, 9001)
	_, b := streamStormFixture(t, 9001)
	if a != b {
		t.Fatalf("same seed diverged:\n run1 %s\n run2 %s", a, b)
	}
	if sa.Streamed != 60 {
		t.Errorf("streamed %d of 120 queries, want 60", sa.Streamed)
	}
	if sa.Incomplete != 0 || sa.Partial != 0 {
		t.Errorf("lossless streaming storm left partial=%d incomplete=%d", sa.Partial, sa.Incomplete)
	}
	t.Logf("stream storm transcript: %s", a)
}

// TestStormDeterminism is the virtual-time determinism contract: the same
// 1k-node churn + query storm replays byte-identically from one seed, and
// two different seeds produce observably different runs (if they did not,
// the fingerprint would be vacuous). Seed 7001's outcome is pinned.
func TestStormDeterminism(t *testing.T) {
	a, storm, events := stormFixture(t, 7001)
	b, _, _ := stormFixture(t, 7001)
	if a != b {
		t.Fatalf("same seed diverged:\n run1 %s\n run2 %s", a, b)
	}
	checkPinned(t, storm, events, 0xbab61ae7c54cb1f0, 337_010)
	c, _, _ := stormFixture(t, 7002)
	if a == c {
		t.Fatalf("different seeds replayed identically: %s", a)
	}
	t.Logf("storm transcript: %s", a)
}
