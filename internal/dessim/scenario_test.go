package dessim_test

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"squid/internal/dessim"
	"squid/internal/keyspace"
	"squid/internal/squid"
	"squid/internal/workload"
)

// scenario is one seeded storm on a small replicated ring over 5–80 ms
// links: its fault phases, scheduled before the storm runs, and the checks
// it exists for beyond those runScenario makes of every scenario.
type scenario struct {
	name        string
	seeds       []int64 // committed; SQUID_STORM_SWEEP=N runs N from the first
	nodes, keys int
	legacy      bool // chord.Config.LegacyRules
	storm       dessim.StormConfig
	phases      func(nw *dessim.Network)
	check       func(t *testing.T, nw *dessim.Network, res dessim.StormResult)
}

// scenarios are the churn and chaos soaks as one-minute storms.
var scenarios = []scenario{{
	// Joins, graceful leaves, kills and writes interleave with queries.
	// Seed 16 caught a departed node answering from its emptied store as if
	// complete; seed 6 a joiner inheriting a dead node's arc but not its
	// data.
	name: "churn", seeds: []int64{1, 2, 6, 16}, nodes: 20, keys: 400,
	storm: dessim.StormConfig{Queries: 80, Joins: 5, Leaves: 3, Kills: 3, Publishes: 50, Unpublishes: 20, StabilizeRounds: 30},
}, {
	// A join, a kill and a leave land within 3 ms of each other, so each
	// repair overlaps the next event; one kill per burst, so two replicas
	// cover it. Seed 40 also catches a departed node answering.
	name: "bursts", seeds: []int64{1, 2, 40}, nodes: 16, keys: 300,
	storm: dessim.StormConfig{Queries: 60, Joins: 4, Leaves: 4, Kills: 4, StabilizeRounds: 40},
}, {
	// 12 % message loss for 50 s, and a member black-holed for 20 s twice.
	name: "chaos", seeds: []int64{4001}, nodes: 16, keys: 300,
	storm: dessim.StormConfig{Queries: 100},
	phases: func(nw *dessim.Network) {
		nw.Schedule(5*time.Second, func() { nw.Faults.SetDropRate(0.12) })
		nw.Schedule(55*time.Second, func() { nw.Faults.SetDropRate(0) })
		for i, at := range []time.Duration{5 * time.Second, 30 * time.Second} {
			victim := nw.Peers[5*i+3].Addr()
			nw.Schedule(at, func() { nw.Faults.Crash(victim) })
			nw.Schedule(at+20*time.Second, func() { nw.Faults.Restart(victim) })
		}
	},
	check: func(t *testing.T, nw *dessim.Network, res dessim.StormResult) {
		st := nw.Faults.Stats()
		redispatch := nw.Telemetry.CounterVec("squid_engine_recovery_total", "", "node", "event").Sum("event", "redispatch")
		retries := nw.Telemetry.CounterVec("squid_chord_rpc_retries_total", "", "node", "op").Sum("op", "find")
		if res.Partial == 0 || st.Dropped == 0 || st.CrashDrops == 0 || redispatch == 0 || retries == 0 {
			t.Errorf("faults not exercised: %d partial, %+v, %d re-dispatches, %d find retries", res.Partial, st, redispatch, retries)
		}
	},
}, {
	// A quarter of all messages lost for the whole storm; the Q2 share of
	// the mix is point queries.
	name: "lossy", seeds: []int64{5001}, nodes: 12, keys: 200,
	storm:  dessim.StormConfig{Queries: 40},
	phases: func(nw *dessim.Network) { nw.Faults.SetDropRate(0.25) },
	check: func(t *testing.T, nw *dessim.Network, res dessim.StormResult) {
		if st := nw.Faults.Stats(); res.Complete == 0 || res.Partial == 0 || st.Dropped == 0 || st.Delayed == 0 {
			t.Errorf("want complete and partial answers, drops and delays under 25%% loss: %v, %+v", res, st)
		}
	},
}}

// stormNet builds cfg's ring over the 2-D word space and preloads keys Zipf
// tuples over a vocabulary of words words, all drawn from cfg.Seed.
func stormNet(t *testing.T, cfg dessim.Config, words, keys int) (*dessim.Network, *workload.Vocabulary) {
	t.Helper()
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Space = space
	nw, err := dessim.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vocab := workload.NewVocabulary(cfg.Seed+2, words, 1.2)
	if err := nw.Preload(workload.Elements(workload.KeyTuples(vocab, cfg.Seed+3, keys, 2))); err != nil {
		t.Fatal(err)
	}
	return nw, vocab
}

// runStorm runs a scenario's storm for one seed on a fresh ring.
func runStorm(t *testing.T, sc scenario, seed int64) (*dessim.Network, dessim.StormResult) {
	t.Helper()
	cfg := wanConfig(sc.nodes, seed, 0)
	cfg.Chord.LegacyRules = sc.legacy
	cfg.Engine = squid.Options{Replicas: 2, SubtreeTimeout: 2 * time.Second, SubtreeRetries: 2, QueryDeadline: 30 * time.Second}
	nw, vocab := stormNet(t, cfg, 300, sc.keys)
	nw.PushReplicasAll()
	if sc.phases != nil {
		sc.phases(nw)
	}
	storm := sc.storm
	storm.Seed, storm.Vocab, storm.Dims, storm.Span = seed+4, vocab, 2, time.Minute
	return nw, nw.RunStorm(storm)
}

// runScenario runs one seed. Every scenario must end with no answer the
// model rejects, no hard ring violation at any stabilization round, no
// stored element lost, and every query answered. Then, with the faults
// cleared and the ring healed under checked rounds: a consistent ring with
// every key in its owner's arc, the stores holding exactly the model's
// live elements, and a quiet storm of exact answers.
func runScenario(t *testing.T, sc scenario, seed int64) {
	nw, res := runStorm(t, sc, seed)
	t.Logf("%v; replay: SQUID_STORM_SWEEP=%d go test -run 'TestStormScenarios/%s/seed=%d$' ./internal/dessim",
		res, seed-sc.seeds[0]+1, sc.name, seed)
	if res.Violations != 0 || res.Stranded != 0 || res.Lost != 0 || nw.RingViolations() != 0 {
		t.Errorf("%d model violations %v, %d stranded queries, %d elements lost, %d hard ring violations",
			res.Violations, res.FirstViolations, res.Stranded, res.Lost, nw.RingViolations())
	}
	if sc.check != nil {
		sc.check(t, nw, res)
	}
	nw.Faults.SetDropRate(0)
	nw.StabilizeAll(10)
	nw.PushReplicasAll()
	if err := nw.VerifyConsistent(); err != nil || nw.RingViolations() != 0 {
		t.Errorf("after healing: %v, %d hard ring violations", err, nw.RingViolations())
	}
	if n := len(nw.BruteForceMatches(keyspace.MustParse("(*, *)"))); n != res.Live {
		t.Errorf("after healing the stores hold %d elements, the model %d live", n, res.Live)
	}
	quiet := nw.RunStorm(dessim.StormConfig{Seed: seed + 5, Queries: 40, Vocab: workload.NewVocabulary(seed+2, 300, 1.2), Dims: 2, Span: 10 * time.Second})
	if quiet.Partial != 0 || quiet.Incomplete != 0 || quiet.Violations != 0 {
		t.Errorf("after healing, answers are not exact: %v %v", quiet, quiet.FirstViolations)
	}
}

// sweepSeeds returns the committed seeds, or with SQUID_STORM_SWEEP=N, N
// consecutive seeds from the first.
func sweepSeeds(t *testing.T, committed []int64) []int64 {
	s := os.Getenv("SQUID_STORM_SWEEP")
	if s == "" {
		return committed
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		t.Fatalf("bad SQUID_STORM_SWEEP=%q", s)
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = committed[0] + int64(i)
	}
	return seeds
}

// TestStormScenarios runs every scenario at its committed seeds; a failure
// logs its replay command.
func TestStormScenarios(t *testing.T) {
	for _, sc := range scenarios {
		for _, seed := range sweepSeeds(t, sc.seeds) {
			t.Run(fmt.Sprintf("%s/seed=%d", sc.name, seed), func(t *testing.T) { runScenario(t, sc, seed) })
		}
	}
}

// TestLegacyRulesControl shows that the checks can fail. One churn storm
// per seed runs under the original pseudo-code rules (LegacyRules) and
// under the corrected ones: the committed seeds must show hard ring
// violations and model violations under the first, none under the second.
// It logs the table in EXPERIMENTS.md ("Membership correctness under
// churn"):
//
//	SQUID_STORM_SWEEP=20 go test -run TestLegacyRulesControl -count=1 -v ./internal/dessim
func TestLegacyRulesControl(t *testing.T) {
	control := scenario{nodes: 16, keys: 300, storm: dessim.StormConfig{Queries: 60, Joins: 6, Kills: 4, StabilizeRounds: 30}}
	var legacy [2]uint64
	t.Log("| seed | legacy: hard ring violations | legacy: model violations | corrected: hard ring violations | corrected: model violations |")
	t.Log("|-----:|-----:|-----:|-----:|-----:|")
	for _, seed := range sweepSeeds(t, []int64{2, 5}) {
		var row [2][2]uint64
		for i := range row {
			control.legacy = i == 0
			nw, res := runStorm(t, control, seed)
			row[i] = [2]uint64{nw.RingViolations(), uint64(res.Violations)}
		}
		t.Logf("| %d | %d | %d | %d | %d |", seed, row[0][0], row[0][1], row[1][0], row[1][1])
		legacy[0], legacy[1] = legacy[0]+row[0][0], legacy[1]+row[0][1]
		if row[1] != [2]uint64{} {
			t.Errorf("seed %d, corrected rules: %v hard ring and model violations", seed, row[1])
		}
	}
	if legacy[0] == 0 || legacy[1] == 0 {
		t.Errorf("legacy rules: %v hard ring and model violations, want both nonzero", legacy)
	}
}
