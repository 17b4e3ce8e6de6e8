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

// randSoakWord draws a random lowercase word of 3 to 7 letters.
func randSoakWord(rng *rand.Rand) string {
	b := make([]byte, 3+rng.Intn(5))
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// checkAnswer fails the test unless res obeys sim.CheckAnswer against the
// ground truth taken just before the query ran.
func checkAnswer(t *testing.T, label string, res squid.Result, truth []squid.Element) {
	t.Helper()
	if err := sim.CheckAnswer(res.Matches, res.Err == nil, truth, truth); err != nil {
		t.Fatalf("%s: %v (err %v)", label, err, res.Err)
	}
}

// TestChaosQuerySubsetProperty is the property-style check: randomized
// queries through a heavily lossy transport always obey sim.CheckAnswer
// against the brute-force ground truth — matches may be missing (flagged
// via Err) but are never fabricated or duplicated.
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
		truth := nw.BruteForceMatches(q)
		res, _ := nw.Query(rng.Intn(len(nw.Peers)), q)
		checkAnswer(t, fmt.Sprintf("%s: property query %d %s", seeds, i, qs), res, truth)
	}
}
