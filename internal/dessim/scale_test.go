package dessim_test

import (
	"os"
	"testing"
	"time"

	"squid/internal/chord"
	"squid/internal/dessim"
	"squid/internal/squid"
)

// paperScaleRun is the full planet-scale experiment at a given size:
// bootstrap the ring, preload a Zipf corpus, run 10 stabilization rounds
// with global invariant checks, then a 1 000-query churn storm over lossy
// links. It returns the storm result and the network for assertions.
func paperScaleRun(t *testing.T, nodes, keys int, seed int64) (dessim.StormResult, *dessim.Network) {
	t.Helper()
	nw, vocab := stormNet(t, wanConfig(nodes, seed, 0.005), 2000, keys)
	nw.StabilizeAll(10) // invariant-checked: CheckRing runs every round
	storm := nw.RunStorm(dessim.StormConfig{
		Seed:            seed + 4,
		Queries:         1000,
		Vocab:           vocab,
		Dims:            2,
		Joins:           25,
		Kills:           25,
		StabilizeRounds: 10,
	})
	nw.CheckRing()
	return storm, nw
}

// wanConfig is the paper-scale storms' network: 5–80 ms links dropping
// drop of all messages, chord RPC retries, and the ring checker on.
func wanConfig(nodes int, seed int64, drop float64) dessim.Config {
	return dessim.Config{
		Nodes: nodes,
		Seed:  seed,
		Net: dessim.NetConfig{
			Seed:       seed + 1,
			MinLatency: 5 * time.Millisecond,
			MaxLatency: 80 * time.Millisecond,
			DropRate:   drop,
		},
		Chord: chord.Config{
			RPCTimeout: 400 * time.Millisecond,
			RPCRetries: 3,
			RPCBackoff: 10 * time.Millisecond,
		},
		Engine: squid.Options{
			// The recovery deadline must comfortably exceed a deep range
			// query's honest completion time (dozens of sequential hops at
			// up to 80 ms each), or the engine re-dispatches subtrees that
			// are still working and the duplicate storm quadruples the
			// event count. Virtual seconds are free; spurious retries are
			// not.
			SubtreeTimeout: 8 * time.Second,
			SubtreeRetries: 2,
			QueryDeadline:  2 * time.Minute,
		},
		CheckInvariants: true,
	}
}

// skipUnderRace skips a scale test in -race builds. The event core is
// single-threaded, so the detector has nothing to check there; it only
// multiplies the wall time past the tests' own budgets. CI's des-scale job
// runs both scale tests without -race.
func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("single-threaded scale experiment skipped under -race")
	}
}

// TestDesScale is the tier-1 smoke for the event core's whole point: a
// 1 000-node ring — ten times past where the goroutine backend tops out —
// runs the full paper-scale experiment (bootstrap, 10 invariant-checked
// stabilization rounds, a 1 000-query churn storm) in a few seconds,
// single-threaded and race-free by construction. Seed 9001's outcome is
// pinned; TestDesPaperScale covers 10⁴ nodes.
func TestDesScale(t *testing.T) {
	skipUnderRace(t)
	start := time.Now()
	storm, nw := paperScaleRun(t, 1000, 4000, 9001)
	elapsed := time.Since(start)

	if storm.Complete == 0 {
		t.Error("no query completed")
	}
	if storm.Incomplete > storm.Complete/10 {
		t.Errorf("too many stranded queries: %v", storm)
	}
	if v := nw.RingViolations(); v != 0 {
		t.Errorf("hard ring violations = %d", v)
	}
	checkPinned(t, storm, nw.Core.Steps(), 0x82c2af5fe389b651, 650_311)
	t.Logf("1k-node experiment: %v in %v (%d events, %.0f events/sec, virtual %v)",
		storm, elapsed.Round(time.Millisecond), nw.Core.Steps(),
		float64(nw.Core.Steps())/elapsed.Seconds(), nw.Core.Elapsed().Round(time.Second))
}

// TestDesPaperScale is the 10⁴-node acceptance experiment; seed 9101's
// outcome is pinned, which proves reproducibility across commits
// (TestStormDeterminism keeps the same-process double run at 1k nodes).
// Skipped in -short runs: it is the slowest test in the repository (though
// still well under a minute — that is the tentpole).
func TestDesPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁴-node paper-scale experiment skipped in short mode")
	}
	skipUnderRace(t)
	start := time.Now()
	storm, nw := paperScaleRun(t, 10_000, 40_000, 9101)
	elapsed := time.Since(start)
	// The outcome is checked before the budget, so an overrun still says
	// whether the run replayed as pinned.
	if v := nw.RingViolations(); v != 0 {
		t.Errorf("hard ring violations = %d", v)
	}
	checkPinned(t, storm, nw.Core.Steps(), 0xe0c5a451707ecb3c, 4_599_742)
	if elapsed > 60*time.Second {
		t.Fatalf("10⁴-node experiment took %v, budget 60s", elapsed)
	}
	t.Logf("10⁴-node experiment: %v in %v (%d events, %.0f events/sec)",
		storm, elapsed.Round(time.Millisecond), nw.Core.Steps(),
		float64(nw.Core.Steps())/elapsed.Seconds())
}

// TestStormSweep runs the 1k-node paper-scale experiment over many seeds,
// for measuring a protocol change's effect on storm completeness beyond
// the pinned seeds. It skips unless SQUID_STORM_SWEEP=N (the scheduled
// churn-soak CI job sets 20). Seed i is 9001+10·i (the runs draw seeds
// seed..seed+4, so a stride of 10 keeps them disjoint). Every seed must end
// with zero hard ring violations, no answer the storm's model rejects, and
// every query answered, complete or partial, unless its initiator was
// killed before the answer came; the totals are logged for comparing two
// commits:
//
//	SQUID_STORM_SWEEP=20 go test -run TestStormSweep -count=1 -v ./internal/dessim
//
// The 20-seed sweep must also stay as complete as it was when the model
// came in: at least 19,807 complete and at most 190 partial answers.
func TestStormSweep(t *testing.T) {
	if os.Getenv("SQUID_STORM_SWEEP") == "" {
		t.Skip("set SQUID_STORM_SWEEP=N to sweep N seeds")
	}
	skipUnderRace(t)
	var total dessim.StormResult
	n := len(sweepSeeds(t, []int64{0}))
	for i := range n {
		seed := int64(9001 + 10*i)
		storm, nw := paperScaleRun(t, 1000, 4000, seed)
		if v := nw.RingViolations(); v != 0 || storm.Stranded != 0 || storm.Violations != 0 {
			t.Errorf("seed %d: %d hard ring violations, %d queries at live initiators never answered, %d model violations %v",
				seed, v, storm.Stranded, storm.Violations, storm.FirstViolations)
		}
		t.Logf("seed %d: %v", seed, storm)
		total.Complete += storm.Complete
		total.Partial += storm.Partial
		total.Incomplete += storm.Incomplete
		total.Stranded += storm.Stranded
		total.Matches += storm.Matches
		total.Steps += storm.Steps
	}
	t.Logf("%d seeds: complete=%d partial=%d incomplete=%d stranded=%d matches=%d events=%d",
		n, total.Complete, total.Partial, total.Incomplete, total.Stranded, total.Matches, total.Steps)
	if n == 20 && (total.Complete < 19_807 || total.Partial > 190) {
		t.Errorf("20 seeds: %d complete and %d partial, want at least 19807 and at most 190", total.Complete, total.Partial)
	}
}
