package dessim

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"squid/internal/chord"
	"squid/internal/keyspace"
	"squid/internal/sim"
	"squid/internal/squid"
	"squid/internal/workload"
)

// StormConfig drives a churn + query storm: queries, joins, kills, and
// stabilization rounds interleaved across a window of virtual time, all
// scheduled up front and executed by one Run. This is the planet-scale
// workload of the paper's experiments — thousands of concurrent queries
// against a ring that is losing and gaining members while they run.
type StormConfig struct {
	// Seed drives every storm decision: query mix, initiating peers, churn
	// victims, join identifiers.
	Seed int64
	// Queries is the number of queries launched, spread evenly over Span.
	Queries int
	// Vocab and Dims configure the Zipf query generator; the mix cycles
	// Q1/Q2/Q3 like the paper's workload.
	Vocab *workload.Vocabulary
	Dims  int
	// Joins and Kills are protocol-level churn events spread over Span.
	Joins, Kills int
	// StabilizeRounds full stabilization sweeps are interleaved over Span
	// so the ring heals around the churn while queries are in flight.
	StabilizeRounds int
	// TopK > 0 runs every other query as a streaming Limit(TopK) query
	// (QueryStreamFunc) instead of a full drain — the browsing-style storm
	// mix. Batch and delivery counts fold into the fingerprint, so a
	// nondeterministic streaming path breaks replay equality.
	TopK int
	// Span is the virtual-time window everything is scheduled across
	// (default 10 minutes of virtual time).
	Span time.Duration
}

// StormResult summarizes a storm deterministically: identical seeds must
// reproduce it field for field, and Fingerprint folds the full per-query
// outcome sequence, so two runs agree byte-for-byte iff the simulation
// replayed exactly.
type StormResult struct {
	Complete    int    // queries that finished with nil error
	Partial     int    // queries that finished with an error
	Incomplete  int    // query callbacks that never fired (initiator died)
	Matches     int    // total matches across completed queries
	Streamed    int    // queries run as Limit(TopK) streams
	JoinErrs    int    // protocol joins that failed (e.g. id collision)
	Steps       uint64 // events executed during the storm
	Fingerprint uint64
}

func (r StormResult) String() string {
	return fmt.Sprintf("complete=%d partial=%d incomplete=%d matches=%d streamed=%d joinErrs=%d steps=%d fp=%016x",
		r.Complete, r.Partial, r.Incomplete, r.Matches, r.Streamed, r.JoinErrs, r.Steps, r.Fingerprint)
}

// RunStorm schedules the whole storm and runs the event loop to
// quiescence. Every decision that depends on network state (which peer
// initiates, who dies) is made at its event's virtual instant from the
// storm's seeded rng, so the run is a pure function of (network state,
// config).
func (nw *Network) RunStorm(cfg StormConfig) StormResult {
	if cfg.Span <= 0 {
		cfg.Span = 10 * time.Minute
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := workload.NewQueryGen(cfg.Vocab, cfg.Seed+1, cfg.Dims)
	queries := make([]keyspace.Query, cfg.Queries)
	for i := range queries {
		// Paper-style mix: mostly selective lookups (Q2) and partial
		// keywords (Q1/Q3 keyword), with an occasional broad range sweep.
		// Q3 range queries refine into orders of magnitude more clusters
		// than the rest, so an even split would make the storm's cost be
		// "how many range sweeps" rather than a blended workload.
		switch i % 8 {
		case 0, 4:
			queries[i] = gen.Q1()
		case 1, 3, 5:
			queries[i] = gen.Q2()
		case 2, 6:
			queries[i] = gen.Q3Keyword()
		case 7:
			queries[i] = gen.Q3Ranges()
		}
	}

	var res StormResult
	h := fnv.New64a()
	fold := func(vals ...int) {
		var buf [8]byte
		for _, v := range vals {
			for i := range buf {
				buf[i] = byte(uint64(v) >> (8 * i))
			}
			_, _ = h.Write(buf[:]) // hash.Hash.Write never fails
		}
	}

	startBase := nw.Core.Steps()
	space := chord.Space{Bits: nw.Space.IndexBits()}

	for i, q := range queries {
		i, q := i, q
		at := cfg.Span * time.Duration(i) / time.Duration(max(cfg.Queries, 1))
		nw.Schedule(at, func() {
			if len(nw.Peers) == 0 {
				return
			}
			p := nw.Peers[rng.Intn(len(nw.Peers))]
			if cfg.TopK > 0 && i%2 == 1 {
				sim.MustInvoke(p, func() {
					res.Streamed++
					batches, delivered := 0, 0
					_, err := p.Engine.QueryStreamFunc(context.Background(), q, func(ev squid.StreamEvent) {
						if !ev.Done {
							batches++
							delivered += len(ev.Matches)
							return
						}
						if ev.Err != nil {
							res.Partial++
							fold(i, -1, batches)
							return
						}
						res.Complete++
						res.Matches += delivered
						fold(i, delivered, batches)
					}, squid.Limit(cfg.TopK))
					if err != nil {
						res.Partial++
						fold(i, -1, -1)
					}
				})
				return
			}
			sim.MustInvoke(p, func() {
				p.Engine.Query(q, func(r squid.Result) {
					if r.Err != nil {
						res.Partial++
						fold(i, -1)
						return
					}
					res.Complete++
					res.Matches += len(r.Matches)
					fold(i, len(r.Matches))
				})
			})
		})
	}

	for k := 0; k < cfg.Kills; k++ {
		at := cfg.Span * time.Duration(k+1) / time.Duration(cfg.Kills+1)
		nw.Schedule(at, func() {
			if len(nw.Peers) < 2 {
				return
			}
			nw.KillPeer(rng.Intn(len(nw.Peers)))
		})
	}

	for j := 0; j < cfg.Joins; j++ {
		at := cfg.Span*time.Duration(j+1)/time.Duration(cfg.Joins+1) + time.Millisecond
		nw.Schedule(at, func() {
			id := chord.ID(rng.Uint64() & space.Mask())
			p, err := nw.NewPeer(id)
			if err != nil {
				res.JoinErrs++
				return
			}
			seed := nw.Peers[rng.Intn(len(nw.Peers))]
			sim.MustInvoke(p, func() {
				p.Node.Join(seed.Addr(), func(e error) {
					if e != nil {
						res.JoinErrs++
						nw.Net.Kill(p.Addr())
						return
					}
					nw.Admit(p)
				})
			})
		})
	}

	for r := 0; r < cfg.StabilizeRounds; r++ {
		at := cfg.Span*time.Duration(r+1)/time.Duration(cfg.StabilizeRounds+1) + 2*time.Millisecond
		nw.Schedule(at, func() {
			for _, p := range nw.Peers {
				sim.MustInvoke(p, func() {
					p.Node.CheckPredecessor()
					p.Node.Stabilize()
					p.Node.FixFingers()
				})
			}
		})
	}

	nw.Run()
	res.Incomplete = cfg.Queries - res.Complete - res.Partial
	res.Steps = nw.Core.Steps() - startBase
	fold(res.Complete, res.Partial, res.Incomplete, res.Matches, res.Streamed, res.JoinErrs, int(res.Steps), len(nw.Peers))
	res.Fingerprint = h.Sum64()
	return res
}
