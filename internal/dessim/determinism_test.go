package dessim_test

import (
	"fmt"
	"testing"
	"time"

	"squid/internal/dessim"
	"squid/internal/squid"
)

// stormFixture builds a 1 000-node ring over lossy, slow links, preloads a
// Zipf corpus, and runs a churn + query storm, returning a byte-exact
// transcript of everything observable: the storm result (with its folded
// per-query fingerprint), event counts, final virtual time, fault
// accounting, ring size, and total stored keys. The storm result and the
// total event count are also returned for pinning.
func stormFixture(t *testing.T, seed int64) (string, dessim.StormResult, uint64) {
	t.Helper()
	nw, vocab := stormNet(t, wanConfig(1000, seed, 0.01), 500, 5000)
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
		storm, events, nw.Core.Elapsed(), nw.Faults.Stats(), len(nw.Peers), nw.TotalKeys(),
		nw.RingViolations())
	return transcript, storm, events
}

// checkPinned fails unless a seeded storm reproduced the fingerprint and
// total event count recorded for its seed, with no answer its model
// rejected. Determinism across runs of one build is asserted separately;
// the pin holds the outcome across commits, so a refactor that claims to
// leave the protocol alone can prove it.
func checkPinned(t *testing.T, storm dessim.StormResult, events, wantFP, wantEvents uint64) {
	t.Helper()
	if storm.Fingerprint != wantFP || events != wantEvents || storm.Violations != 0 {
		t.Errorf("storm fp=%016x events=%d model violations %d %v, pinned fp=%016x events=%d and none: the seeded "+
			"storm no longer replays as recorded. A deliberate protocol change updates these constants in the "+
			"same commit; anything else is a regression", storm.Fingerprint, events, storm.Violations,
			storm.FirstViolations, wantFP, wantEvents)
	}
}

// streamStormFixture runs a smaller storm where every other query streams
// with Limit(TopK): delivery and batch counts fold into the fingerprint,
// so any nondeterminism in the streaming path (windowed dispatch, cancel
// teardown, partial forwarding) breaks replay equality. It returns the
// storm result, the total event count and the final virtual time for
// pinning, and the transcript.
func streamStormFixture(t *testing.T, seed int64) (dessim.StormResult, uint64, time.Duration, string) {
	t.Helper()
	nw, vocab := stormNet(t, dessim.Config{
		Nodes: 200,
		Seed:  seed,
		Net: dessim.NetConfig{
			Seed:       seed + 1,
			MinLatency: 5 * time.Millisecond,
			MaxLatency: 60 * time.Millisecond,
		},
		Engine: squid.Options{QueryDeadline: 2 * time.Minute},
	}, 300, 3000)
	storm := nw.RunStorm(dessim.StormConfig{
		Seed:    seed + 4,
		Queries: 120,
		Vocab:   vocab,
		Dims:    2,
		TopK:    5,
	})
	events, vtime := nw.Core.Steps(), nw.Core.Elapsed()
	return storm, events, vtime, fmt.Sprintf("storm{%v} steps=%d vtime=%v", storm, events, vtime)
}

// TestStreamStormDeterminism extends the determinism contract to the
// streaming mix: Limit(k) streams replay byte-identically, every query
// resolves, and the streamed half is exactly half the storm. Seed 9001's
// outcome is pinned, with its storm steps and final virtual time: it is
// the one pinned storm that runs Limit(k) streams.
func TestStreamStormDeterminism(t *testing.T) {
	sa, events, vtime, a := streamStormFixture(t, 9001)
	_, _, _, b := streamStormFixture(t, 9001)
	if a != b {
		t.Fatalf("same seed diverged:\n run1 %s\n run2 %s", a, b)
	}
	checkPinned(t, sa, events, 0xba7ab70af84e64dd, 5_662)
	if sa.Steps != 5_377 || vtime != 9*time.Minute+55_450_367_680*time.Nanosecond {
		t.Errorf("stream storm ran %d storm steps to virtual time %v, pinned 5377 and 9m55.45036768s", sa.Steps, vtime)
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
	checkPinned(t, storm, events, 0x5224ba19ceaa1799, 214_932)
	c, _, _ := stormFixture(t, 7002)
	if a == c {
		t.Fatalf("different seeds replayed identically: %s", a)
	}
	t.Logf("storm transcript: %s", a)
}
