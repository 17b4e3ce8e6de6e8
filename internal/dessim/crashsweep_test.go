package dessim_test

import (
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"squid/internal/chord"
	"squid/internal/dessim"
	"squid/internal/keyspace"
	"squid/internal/sim"
	"squid/internal/squid"
)

// crashVocab is the 20-word vocabulary of the crash sweep's documents.
var crashVocab = []string{
	"computer", "computation", "company", "compiler", "network", "net",
	"node", "data", "database", "storage", "system", "grid", "peer",
	"discovery", "index", "query", "curve", "hilbert", "chord", "cost",
}

// crashSweepRing builds the sweep's 30-member ring on 5 ms links, with
// recovery armed and no query deadline, so only subtree accounting ends a
// query, and loads it with 2,000 two-word documents.
func crashSweepRing(t *testing.T) *dessim.Network {
	t.Helper()
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := dessim.Build(sim.Config{
		Nodes: 30, Space: space, Seed: 7,
		Net:   dessim.NetConfig{Seed: 43, MinLatency: 5 * time.Millisecond, MaxLatency: 5 * time.Millisecond},
		Chord: chord.Config{RPCTimeout: 200 * time.Millisecond, RPCRetries: 2},
		Engine: squid.Options{
			SubtreeTimeout:  time.Second,
			SubtreeRetries:  1,
			InitialClusters: 64,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	docs := make([]squid.Element, 2000)
	for i := range docs {
		docs[i] = squid.Element{
			Values: []string{crashVocab[rng.Intn(len(crashVocab))], crashVocab[rng.Intn(len(crashVocab))]},
			Data:   fmt.Sprintf("doc%d", i),
		}
	}
	if err := nw.Preload(docs); err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestCrashSweepStreams black-holes one member per run and streams four
// queries from each root, Limit(5) and unlimited. Every stream must end
// with an answer sim.CheckAnswer accepts, and a partial one must not hand
// out an exhausted cursor: resuming from it would silently skip what the
// lost member held. Tier-1 runs the roots 7 and 21 against every victim;
// SQUID_STORM_SWEEP=N runs all five, spread over the ring:
//
//	SQUID_STORM_SWEEP=1 go test -run TestCrashSweepStreams -count=1 -v ./internal/dessim
func TestCrashSweepStreams(t *testing.T) {
	roots := []int{0, 7, 14, 21, 28}
	if os.Getenv("SQUID_STORM_SWEEP") == "" {
		roots = []int{7, 21}
	}
	queries := []keyspace.Query{
		keyspace.MustParse("(c*, *)"), keyspace.MustParse("(*, n*)"),
		keyspace.MustParse("(d*, *)"), keyspace.MustParse("(*, *)"),
	}
	var streams, hung, partial, exhausted int
	empty := map[string]int{}
	for victim := 0; victim < 30; victim++ {
		nw := crashSweepRing(t)
		nw.Faults.Crash(nw.Peers[victim].Addr())
		for _, root := range roots {
			if root == victim {
				continue
			}
			for _, q := range queries {
				truth := nw.BruteForceMatches(q)
				for _, k := range []int{5, 0} {
					sr, _ := nw.QueryStream(root, q, squid.Limit(k))
					streams++
					lower := truth
					if k > 0 {
						lower = nil // any k of them
					}
					if err := sim.CheckAnswer(sr.Matches, sr.Err == nil, lower, truth); err != nil {
						t.Errorf("victim %d, root %d, %s Limit(%d): %v", victim, root, q, k, err)
					}
					switch {
					case sr.Err == sim.ErrIncomplete:
						hung++
						t.Errorf("victim %d, root %d, %s Limit(%d): the stream never ended", victim, root, q, k)
					case sr.Err != nil:
						partial++
						if len(sr.Matches) == 0 {
							empty[fmt.Sprintf("%s Limit(%d)", q, k)]++
						}
						if sr.Cursor.Exhausted() {
							exhausted++
							t.Errorf("victim %d, root %d, %s Limit(%d): partial (%v) with an exhausted cursor", victim, root, q, k, sr.Err)
						}
					}
				}
			}
		}
	}
	t.Logf("%d streams: %d never ended, %d partial, %d of them with an exhausted cursor; partial with no match: %v",
		streams, hung, partial, exhausted, empty)
}
