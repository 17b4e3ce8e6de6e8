package squid_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"squid/internal/chord"
	"squid/internal/dessim"
	"squid/internal/keyspace"
	"squid/internal/sim"
	"squid/internal/squid"
	"squid/internal/transport"
)

// chordRetryConfig is the ring-level retry policy used by the chaos tests:
// fast timeouts so lost RPCs fail over quickly, enough retries to ride out
// a 10-25% drop rate.
func chordRetryConfig() chord.Config {
	return chord.Config{
		RPCTimeout: 40 * time.Millisecond,
		RPCRetries: 4,
		RPCBackoff: 2 * time.Millisecond,
	}
}

// chaosConfig is the chaos suite's network: a seeded fault plan (quiet
// until a test sets a drop rate) under the full recovery stack — chord RPC
// retries, engine subtree re-dispatch, and a hard query deadline so no
// query can hang the test. Links are instant on either driver.
func chaosConfig(t testing.TB, nodes int, seed int64) sim.Config {
	t.Helper()
	return sim.Config{
		Nodes: nodes, Space: schedSpace(t), Seed: seed,
		Engine: squid.Options{
			Replicas:       2,
			SubtreeTimeout: 50 * time.Millisecond,
			SubtreeRetries: 2,
			QueryDeadline:  2 * time.Second,
		},
		Chord: chordRetryConfig(),
		Net: transport.FaultConfig{
			Seed: seed + 1, // drop rate starts at 0; raised per phase
		},
		CheckInvariants: true,
	}
}

// seedsOf names a chaos network's two seeds, so a failure message is
// enough to replay the run that produced it.
func seedsOf(cfg sim.Config) string {
	return fmt.Sprintf("ring seed %d, fault seed %d", cfg.Seed, cfg.Net.Seed)
}

// onGoroutines builds cfg on the goroutine driver: a mailbox goroutine per
// peer and real timers. Tests of the worker pool, of context watchers and
// of races between goroutines need it.
func onGoroutines(t testing.TB, cfg sim.Config) *sim.Network {
	t.Helper()
	nw, err := sim.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// onEventCore builds cfg on the event core: every timer runs on virtual
// time, so a soak of timeouts and retries takes no wall time and replays
// exactly from its seeds.
func onEventCore(t testing.TB, cfg sim.Config) *dessim.Network {
	t.Helper()
	nw, err := dessim.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// chaosPublish pushes n uniquely tagged elements through the overlay and
// replicates them, returning the live set.
func chaosPublish(t *testing.T, nw *sim.Network, rng *rand.Rand, n int) []squid.Element {
	t.Helper()
	elems := make([]squid.Element, 0, n)
	for i := 0; i < n; i++ {
		e := squid.Element{
			Values: []string{randSoakWord(rng), randSoakWord(rng)},
			Data:   fmt.Sprintf("chaos-%05d", i),
		}
		if err := nw.Publish(rng.Intn(len(nw.Peers)), e); err != nil {
			t.Fatal(err)
		}
		elems = append(elems, e)
	}
	nw.Quiesce()
	nw.PushReplicasAll()
	return elems
}

// dataSet collapses elements to their unique payload tags.
func dataSet(elems []squid.Element) map[string]bool {
	out := make(map[string]bool, len(elems))
	for _, e := range elems {
		out[e.Data] = true
	}
	return out
}

// checkSound asserts the chaos invariants on one query result against the
// ground truth taken immediately before it ran: no phantom matches, no
// duplicates, and — whenever the result claims success — full recall.
// Returns whether the result was complete.
func checkSound(t *testing.T, label string, res squid.Result, truth map[string]bool) bool {
	t.Helper()
	seen := make(map[string]bool, len(res.Matches))
	for _, m := range res.Matches {
		if !truth[m.Data] {
			t.Fatalf("%s: phantom match %q not in ground truth", label, m.Data)
		}
		if seen[m.Data] {
			t.Fatalf("%s: duplicate match %q", label, m.Data)
		}
		seen[m.Data] = true
	}
	if res.Err == nil && len(seen) != len(truth) {
		t.Fatalf("%s: silent partial: %d/%d matches with nil error",
			label, len(seen), len(truth))
	}
	return res.Err == nil
}

// TestChaosSoak drives queries through a lossy transport with a crashed
// node per block of 50 queries. The contract under fire: results are
// always sound (a subset of the pre-query ground truth, no duplicates),
// and a query either achieves full recall or reports a non-nil error —
// never a silently short match set. Once faults clear, one stabilization
// round restores exact recall.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in short mode")
	}
	cfg := chaosConfig(t, 16, 4001)
	seeds := seedsOf(cfg)
	nw := onEventCore(t, cfg).Network
	rng := rand.New(rand.NewSource(4002))
	chaosPublish(t, nw, rng, 300)

	queries := []keyspace.Query{
		keyspace.MustParse("(a*, *)"),
		keyspace.MustParse("(*, m*)"),
		keyspace.MustParse("(b-f, *)"),
		keyspace.MustParse("(*, *)"),
	}

	// Baseline: with the fault plan configured but quiet, recall is exact.
	for _, q := range queries {
		truth := dataSet(nw.BruteForceMatches(q))
		res, _ := nw.Query(rng.Intn(len(nw.Peers)), q)
		label := fmt.Sprintf("%s: baseline %s", seeds, q)
		if res.Err != nil {
			t.Fatalf("%s: %v", label, res.Err)
		}
		checkSound(t, label, res, truth)
	}

	// Chaos phase: ≥10% message loss plus one crashed (black-holed) node
	// per 50-query block.
	nw.Faults.SetDropRate(0.12)
	complete, partial := 0, 0
	for block := 0; block < 2; block++ {
		crashed := rng.Intn(len(nw.Peers))
		nw.Faults.Crash(nw.Peers[crashed].Addr())
		for i := 0; i < 50; i++ {
			q := queries[rng.Intn(len(queries))]
			via := rng.Intn(len(nw.Peers))
			if via == crashed {
				via = (via + 1) % len(nw.Peers)
			}
			truth := dataSet(nw.BruteForceMatches(q))
			res, _ := nw.Query(via, q)
			label := fmt.Sprintf("%s: block %d query %d %s", seeds, block, i, q)
			if checkSound(t, label, res, truth) {
				complete++
			} else {
				partial++
			}
		}
		nw.Faults.Restart(nw.Peers[crashed].Addr())
	}
	if partial == 0 {
		t.Errorf("%s: chaos phase produced no partial results — faults were not exercised", seeds)
	}
	st := nw.Faults.Stats()
	if st.Dropped == 0 || st.CrashDrops == 0 {
		t.Errorf("%s: fault stats %+v: expected injected drops and crash drops", seeds, st)
	}
	redispatches := nw.Telemetry.CounterVec("squid_engine_recovery_total", "", "node", "event").Sum("event", "redispatch")
	if redispatches == 0 {
		t.Errorf("%s: no subtree re-dispatches despite message loss", seeds)
	}
	findRetries := nw.Telemetry.CounterVec("squid_chord_rpc_retries_total", "", "node", "op").Sum("op", "find")
	if findRetries == 0 {
		t.Errorf("%s: no chord RPC retries despite message loss", seeds)
	}
	t.Logf("chaos: %d complete / %d partial; faults %+v; %d redispatches; %d find retries",
		complete, partial, st, redispatches, findRetries)

	// Faults clear: one stabilization round must restore exact recall.
	nw.Faults.SetDropRate(0)
	nw.StabilizeAll(1)
	nw.PushReplicasAll()
	for _, q := range queries {
		truth := dataSet(nw.BruteForceMatches(q))
		res, _ := nw.Query(rng.Intn(len(nw.Peers)), q)
		label := fmt.Sprintf("%s: post-heal %s", seeds, q)
		if res.Err != nil {
			t.Fatalf("%s: %v", label, res.Err)
		}
		if !checkSound(t, label, res, truth) || len(res.Matches) != len(truth) {
			t.Fatalf("%s: %d/%d matches", label, len(res.Matches), len(truth))
		}
	}
	if n := nw.RingViolations(); n != 0 {
		t.Fatalf("%s: %d hard ring violations after heal — crashes and message loss must not break membership", seeds, n)
	}
}

// TestChaosQuerySubsetProperty is the property-style check: randomized
// queries through a heavily lossy transport always return a subset of the
// brute-force ground truth — matches may be missing (flagged via Err) but
// are never fabricated or duplicated.
func TestChaosQuerySubsetProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos property test skipped in short mode")
	}
	cfg := chaosConfig(t, 12, 5001)
	seeds := seedsOf(cfg)
	nw := onEventCore(t, cfg).Network
	rng := rand.New(rand.NewSource(5002))
	elems := chaosPublish(t, nw, rng, 200)
	nw.Faults.SetDropRate(0.25)

	randTerm := func() string {
		switch rng.Intn(3) {
		case 0:
			return "*"
		case 1:
			return string(rune('a'+rng.Intn(26))) + "*"
		default:
			a, b := rune('a'+rng.Intn(26)), rune('a'+rng.Intn(26))
			if a > b {
				a, b = b, a
			}
			return fmt.Sprintf("%c-%c", a, b)
		}
	}
	for i := 0; i < 30; i++ {
		var qs string
		if rng.Intn(5) == 0 {
			// Exact query for a published element: exercises the lookup
			// path's recovery under the same faults.
			e := elems[rng.Intn(len(elems))]
			qs = fmt.Sprintf("(%s, %s)", e.Values[0], e.Values[1])
		} else {
			qs = fmt.Sprintf("(%s, %s)", randTerm(), randTerm())
		}
		q, err := keyspace.Parse(qs)
		if err != nil {
			t.Fatalf("%s: generated unparsable query %q: %v", seeds, qs, err)
		}
		truth := dataSet(nw.BruteForceMatches(q))
		res, _ := nw.Query(rng.Intn(len(nw.Peers)), q)
		checkSound(t, fmt.Sprintf("%s: property query %d %s", seeds, i, qs), res, truth)
	}
}
