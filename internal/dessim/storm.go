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

// StormConfig drives a churn + query storm: queries, writes, joins, leaves,
// kills, and stabilization rounds interleaved across a window of virtual
// time, all scheduled up front and executed by one Run. This is the
// planet-scale workload of the paper's experiments — thousands of
// concurrent queries against a ring that is losing and gaining members
// while they run — and every scenario test's driver: a test schedules
// fault phases (drop rate, crash, restart) of its own with
// Network.Schedule before it calls RunStorm.
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
	// Leaves are graceful departures spread over Span: a random member
	// hands its arc to its successor and leaves the ring. Its process
	// keeps answering what reaches it for ten link latencies (MaxLatency),
	// then exits.
	Leaves int
	// Publishes and Unpublishes are writes spread over Span: a publish
	// routes a fresh element (a Zipf tuple from Vocab) from a random
	// member; an unpublish withdraws a random live element, preloaded or
	// published, whose publish has settled.
	Publishes, Unpublishes int
	// StabilizeRounds full stabilization sweeps are interleaved over Span
	// so the ring heals around the churn while queries are in flight. When
	// the engines replicate, each round also pushes replicas; when the
	// network checks invariants, each round first checks the ring as it
	// stands.
	StabilizeRounds int
	// TopK > 0 runs every other query as a streaming Limit(TopK) query
	// (QueryStreamFunc) instead of a full drain — the browsing-style storm
	// mix. Batch and delivery counts fold into the fingerprint, so a
	// nondeterministic streaming path breaks replay equality. Either way
	// every other full drain runs as an unlimited stream rather than a
	// Query.
	TopK int
	// Span is the virtual-time window everything is scheduled across
	// (default 10 minutes of virtual time).
	Span time.Duration
}

// StormResult summarizes a storm deterministically: identical seeds must
// reproduce it field for field, and Fingerprint folds the full per-query
// outcome sequence, so two runs agree byte-for-byte iff the simulation
// replayed exactly. The model's verdicts (Violations, Lost, Live) stay out
// of the fingerprint: they judge the run without being part of it.
type StormResult struct {
	Complete    int    // queries that finished with nil error
	Partial     int    // queries that finished with an error
	Incomplete  int    // query callbacks that never fired
	Stranded    int    // of Incomplete, those whose initiator is still a member
	Matches     int    // total matches across completed queries
	Streamed    int    // queries run as Limit(TopK) streams
	JoinErrs    int    // protocol joins that failed (e.g. id collision)
	Steps       uint64 // events executed during the storm
	Fingerprint uint64

	Violations      int     // answers the model rejected
	FirstViolations []error // the first few, naming query, time and element
	Lost            int     // stored elements lost with a member that died holding the only copy
	Live            int     // elements published, not withdrawn and not lost at the end
}

func (r StormResult) String() string {
	return fmt.Sprintf("complete=%d partial=%d incomplete=%d stranded=%d matches=%d streamed=%d joinErrs=%d steps=%d fp=%016x violations=%d lost=%d",
		r.Complete, r.Partial, r.Incomplete, r.Stranded, r.Matches, r.Streamed, r.JoinErrs, r.Steps, r.Fingerprint, r.Violations, r.Lost)
}

// RunStorm schedules the whole storm and runs the event loop to
// quiescence. Every decision that depends on network state (which peer
// initiates, who dies) is made at its event's virtual instant from the
// storm's seeded rng, so the run is a pure function of (network state,
// config). The storm's model checks every answer as it arrives.
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
	netCfg := nw.Config()
	m := newModel(nw)
	// initiator[i] is query i's root peer until its callback fires.
	initiator := make([]*sim.Peer, cfg.Queries)

	for i, q := range queries {
		i, q := i, q
		at := cfg.Span * time.Duration(i) / time.Duration(max(cfg.Queries, 1))
		nw.Schedule(at, func() {
			if len(nw.Peers) == 0 {
				return
			}
			p := nw.Peers[rng.Intn(len(nw.Peers))]
			initiator[i] = p
			start := nw.Core.Now()
			if cfg.TopK > 0 && i%2 == 1 {
				sim.MustInvoke(p, func() {
					res.Streamed++
					batches := 0
					var got []squid.Element
					_, err := p.Engine.QueryStreamFunc(context.Background(), q, func(ev squid.StreamEvent) {
						if !ev.Done {
							batches++
							got = append(got, ev.Matches...)
							return
						}
						initiator[i] = nil
						m.check(i, q, start, got, false)
						if ev.Err != nil {
							res.Partial++
							fold(i, -1, batches)
							return
						}
						res.Complete++
						res.Matches += len(got)
						fold(i, len(got), batches)
					}, squid.Limit(cfg.TopK))
					if err != nil {
						initiator[i] = nil
						res.Partial++
						fold(i, -1, -1)
					}
				})
				return
			}
			// A full drain: every other one runs as an unlimited stream, which
			// sends what a Query collector sends and is checked, counted and
			// folded as one.
			drained := func(matches []squid.Element, err error) {
				initiator[i] = nil
				m.check(i, q, start, matches, err == nil)
				if err != nil {
					res.Partial++
					fold(i, -1)
					return
				}
				res.Complete++
				res.Matches += len(matches)
				fold(i, len(matches))
			}
			slot := i
			if cfg.TopK > 0 {
				slot = i / 2
			}
			if slot%2 == 0 {
				sim.MustInvoke(p, func() {
					p.Engine.Query(q, func(r squid.Result) { drained(r.Matches, r.Err) })
				})
				return
			}
			sim.MustInvoke(p, func() {
				var got []squid.Element
				_, err := p.Engine.QueryStreamFunc(context.Background(), q, func(ev squid.StreamEvent) {
					if !ev.Done {
						got = append(got, ev.Matches...)
						return
					}
					drained(got, ev.Err)
				})
				if err != nil {
					drained(nil, err)
				}
			})
		})
	}

	// spread schedules n events evenly over Span, each offset by off.
	spread := func(n int, off time.Duration, fn func(k int)) {
		for k := 0; k < n; k++ {
			nw.Schedule(cfg.Span*time.Duration(k+1)/time.Duration(n+1)+off, func() { fn(k) })
		}
	}
	spread(cfg.Kills, 0, func(int) {
		if len(nw.Peers) < 2 {
			return
		}
		i := rng.Intn(len(nw.Peers))
		m.kill(nw.Peers[i])
		nw.KillPeer(i)
	})
	spread(cfg.Joins, time.Millisecond, func(int) {
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
	spread(cfg.StabilizeRounds, 2*time.Millisecond, func(int) {
		if netCfg.CheckInvariants {
			nw.checkRing()
		}
		for _, p := range nw.Peers {
			sim.MustInvoke(p, func() {
				p.Node.CheckPredecessor()
				p.Node.Stabilize()
				p.Node.FixFingers()
				p.Engine.PushReplicas() // a no-op without replication
			})
		}
	})
	spread(cfg.Leaves, 3*time.Millisecond, func(int) {
		if len(nw.Peers) < 2 {
			return
		}
		i := rng.Intn(len(nw.Peers))
		p := nw.Peers[i]
		nw.Peers = append(nw.Peers[:i], nw.Peers[i+1:]...)
		sim.MustInvoke(p, p.Node.Leave)
		nw.Schedule(10*netCfg.Net.MaxLatency, func() {
			m.kill(p)
			nw.Net.Kill(p.Addr())
		})
	})
	var tuples [][]string
	if cfg.Publishes > 0 {
		tuples = workload.KeyTuples(cfg.Vocab, cfg.Seed+2, cfg.Publishes, cfg.Dims)
	}
	spread(cfg.Publishes, 4*time.Millisecond, func(k int) {
		e := squid.Element{Values: tuples[k], Data: fmt.Sprintf("storm%d-%05d", cfg.Seed, k)}
		p := nw.Peers[rng.Intn(len(nw.Peers))]
		m.publish(e)
		sim.MustInvoke(p, func() { _ = p.Engine.Publish(e) })
	})
	spread(cfg.Unpublishes, 5*time.Millisecond, func(int) {
		if len(m.truth) == 0 {
			return
		}
		if me := m.unpublish(rng.Intn(len(m.truth))); me != nil {
			p := nw.Peers[rng.Intn(len(nw.Peers))]
			sim.MustInvoke(p, func() { _ = p.Engine.Unpublish(me.e) })
		}
	})

	nw.Run()
	res.Incomplete = cfg.Queries - res.Complete - res.Partial
	members := make(map[*sim.Peer]bool, len(nw.Peers))
	for _, p := range nw.Peers {
		members[p] = true
	}
	for _, p := range initiator {
		if members[p] {
			res.Stranded++
		}
	}
	res.Steps = nw.Core.Steps() - startBase
	fold(res.Complete, res.Partial, res.Incomplete, res.Matches, res.Streamed, res.JoinErrs, int(res.Steps), len(nw.Peers))
	res.Fingerprint = h.Sum64()
	res.Violations, res.FirstViolations, res.Lost = m.violations, m.first, m.lost
	for _, me := range m.truth {
		if me.live() {
			res.Live++
		}
	}
	return res
}

// checkRing runs the global ring check on the members' state as it stands,
// read in place: the event core is one goroutine, so a storm checks the
// ring mid-run without running an event.
func (nw *Network) checkRing() {
	snaps := make([]chord.Snapshot, 0, len(nw.Peers))
	for _, p := range nw.Peers {
		if !nw.Faults.Crashed(p.Addr()) {
			snaps = append(snaps, p.Node.View())
		}
	}
	nw.RecordRing(snaps)
}
