package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"squid/internal/chord"
	"squid/internal/gnutella"
	"squid/internal/invindex"
	"squid/internal/isfc"
	"squid/internal/keyspace"
	"squid/internal/loadbalance"
	"squid/internal/sfc"
	"squid/internal/squid"
	"squid/internal/stats"
	"squid/internal/viz"
	"squid/internal/workload"

	"squid/internal/can"
)

// The paper's geometries: 2-D keyword spaces use 32 bits per axis (64-bit
// index), 3-D use 21 (63-bit index).
const (
	bits2D = 32
	bits3D = 21
)

// Fig09 reproduces Figure 9: six Q1 queries over the 2-D keyword space as
// the system grows (matches, processing nodes, data nodes per scale).
func Fig09(factor float64, w io.Writer) ([]Point, error) {
	pts, err := Sweep(SweepConfig{
		Dims: 2, Bits: bits2D, Scales: PaperScales(factor),
		Kind: Q1, Queries: 6, Seed: 9, Progress: w,
	})
	if err == nil && w != nil {
		WriteTable(w, "Fig 9: Q1 queries, 2D keyword space", pts)
	}
	return pts, err
}

// Fig10 reproduces Figure 10: all metrics for the Q1 queries at the two
// largest 2-D scales (paper: 3 200 nodes/6*10^5 keys and 5 400/10^6).
func Fig10(factor float64, w io.Writer) ([]Point, error) {
	all := PaperScales(factor)
	pts, err := Sweep(SweepConfig{
		Dims: 2, Bits: bits2D, Scales: []Scale{all[2], all[4]},
		Kind: Q1, Queries: 6, Seed: 9, Progress: w,
	})
	if err == nil && w != nil {
		WriteTable(w, "Fig 10: all metrics, 2D", pts)
	}
	return pts, err
}

// Fig11 reproduces Figure 11: five Q2 queries, 2-D.
func Fig11(factor float64, w io.Writer) ([]Point, error) {
	pts, err := Sweep(SweepConfig{
		Dims: 2, Bits: bits2D, Scales: PaperScales(factor),
		Kind: Q2, Queries: 5, Seed: 11, Progress: w,
	})
	if err == nil && w != nil {
		WriteTable(w, "Fig 11: Q2 queries, 2D", pts)
	}
	return pts, err
}

// Fig12 reproduces Figure 12: six Q1 queries, 3-D sweep.
func Fig12(factor float64, w io.Writer) ([]Point, error) {
	pts, err := Sweep(SweepConfig{
		Dims: 3, Bits: bits3D, Scales: PaperScales(factor),
		Kind: Q1, Queries: 6, Seed: 12, Progress: w,
	})
	if err == nil && w != nil {
		WriteTable(w, "Fig 12: Q1 queries, 3D", pts)
	}
	return pts, err
}

// Fig13 reproduces Figure 13: all metrics at the paper's two 3-D scales
// (3 000/6*10^5 and 5 300/10^6).
func Fig13(factor float64, w io.Writer) ([]Point, error) {
	all := PaperScales(factor)
	pts, err := Sweep(SweepConfig{
		Dims: 3, Bits: bits3D, Scales: []Scale{all[2], all[4]},
		Kind: Q1, Queries: 6, Seed: 12, Progress: w,
	})
	if err == nil && w != nil {
		WriteTable(w, "Fig 13: all metrics, 3D", pts)
	}
	return pts, err
}

// Fig14 reproduces Figure 14: five Q2 queries, 3-D.
func Fig14(factor float64, w io.Writer) ([]Point, error) {
	pts, err := Sweep(SweepConfig{
		Dims: 3, Bits: bits3D, Scales: PaperScales(factor),
		Kind: Q2, Queries: 5, Seed: 14, Progress: w,
	})
	if err == nil && w != nil {
		WriteTable(w, "Fig 14: Q2 queries, 3D", pts)
	}
	return pts, err
}

// Fig15 reproduces Figure 15: range queries (keyword, range, *), 3-D.
func Fig15(factor float64, w io.Writer) ([]Point, error) {
	pts, err := Sweep(SweepConfig{
		Dims: 3, Bits: bits3D, Scales: PaperScales(factor),
		Kind: Q3Keyword, Queries: 4, Seed: 15, Progress: w,
	})
	if err == nil && w != nil {
		WriteTable(w, "Fig 15: range queries (keyword, range, *), 3D", pts)
	}
	return pts, err
}

// Fig16 reproduces Figure 16: all metrics for range queries at the paper's
// two scales (2 750/6*10^5 and 4 700/10^6).
func Fig16(factor float64, w io.Writer) ([]Point, error) {
	s1 := Scale{Nodes: max(2, int(2750*factor)), Keys: max(10, int(600_000*factor))}
	s2 := Scale{Nodes: max(2, int(4700*factor)), Keys: max(10, int(1_000_000*factor))}
	pts, err := Sweep(SweepConfig{
		Dims: 3, Bits: bits3D, Scales: []Scale{s1, s2},
		Kind: Q3Keyword, Queries: 4, Seed: 15, Progress: w,
	})
	if err == nil && w != nil {
		WriteTable(w, "Fig 16: all metrics, range queries", pts)
	}
	return pts, err
}

// Fig17 reproduces Figure 17: range queries (range, range, range), 3-D.
func Fig17(factor float64, w io.Writer) ([]Point, error) {
	pts, err := Sweep(SweepConfig{
		Dims: 3, Bits: bits3D, Scales: PaperScales(factor),
		Kind: Q3Ranges, Queries: 5, Seed: 17, Progress: w,
	})
	if err == nil && w != nil {
		WriteTable(w, "Fig 17: range queries (range, range, range), 3D", pts)
	}
	return pts, err
}

// IndexDistribution is Fig. 18's data: keys bucketed over the index space.
type IndexDistribution struct {
	Counts  []int
	Summary stats.Summary
	Gini    float64
}

// Fig18 reproduces Figure 18: the distribution of keys over 500 equal
// intervals of the index space — the locality-preserving mapping's
// inherent skew, before any load balancing.
func Fig18(keys int, w io.Writer) (IndexDistribution, error) {
	space, err := keyspace.NewWordSpace(2, bits2D)
	if err != nil {
		return IndexDistribution{}, err
	}
	vocab := workload.NewVocabulary(18, maxi(200, keys/20), 1.2)
	tuples := workload.KeyTuples(vocab, 19, keys, 2)
	idxs := make([]uint64, 0, len(tuples))
	for _, tu := range tuples {
		idx, err := space.Index(tu)
		if err != nil {
			return IndexDistribution{}, err
		}
		idxs = append(idxs, idx)
	}
	counts := stats.IntervalCounts(idxs, space.IndexBits(), 500)
	dist := IndexDistribution{Counts: counts, Summary: stats.Summarize(counts), Gini: stats.Gini(counts)}
	if w != nil {
		fmt.Fprintf(w, "== Fig 18: key distribution over 500 index-space intervals ==\n")
		fmt.Fprintf(w, "keys=%d  mean/interval=%.1f  max=%d  median=%.0f  gini=%.3f  empty=%d\n",
			keys, dist.Summary.Mean, dist.Summary.Max, dist.Summary.Median, dist.Gini, countZeros(counts))
		fmt.Fprintf(w, "index space → %s\n", viz.Sparkline(viz.Downsample(counts, 100)))
	}
	return dist, nil
}

func countZeros(v []int) int {
	z := 0
	for _, x := range v {
		if x == 0 {
			z++
		}
	}
	return z
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// LoadDistributions is Fig. 19's data: per-node key loads under the three
// regimes.
type LoadDistributions struct {
	Uniform    []int // random node ids, no balancing (Fig 18's consequence)
	JoinOnly   []int // join-time sampling only (Fig 19a)
	JoinAndRun []int // join-time + runtime neighbor balancing (Fig 19b)
}

// Fig19 reproduces Figure 19: grow a network over skewed data with (a)
// join-time load balancing only and (b) join-time plus runtime balancing,
// reporting per-node load distributions.
func Fig19(nodes, keys int, w io.Writer) (LoadDistributions, error) {
	grow := func(sampled bool, runtimeLB bool) ([]int, error) {
		space, err := keyspace.NewWordSpace(2, bits2D)
		if err != nil {
			return nil, err
		}
		nw, err := build(1, space, 19, squid.Options{})
		if err != nil {
			return nil, err
		}
		vocab := workload.NewVocabulary(20, maxi(200, keys/20), 1.2)
		tuples := workload.KeyTuples(vocab, 21, keys, 2)
		if err := nw.Preload(workload.Elements(tuples)); err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(22))
		randID := func() chord.ID {
			return chord.ID(rng.Uint64() & ((uint64(1) << space.IndexBits()) - 1))
		}
		for len(nw.Peers) < nodes {
			var err error
			if sampled {
				_, err = loadbalance.SampledJoin(nw, 8, randID)
			} else {
				_, err = nw.AddPeer(randID())
			}
			if err != nil {
				return nil, err
			}
		}
		if runtimeLB {
			if _, err := loadbalance.Balance(nw, 2.0, 10); err != nil {
				return nil, err
			}
		}
		return nw.LoadVector(), nil
	}

	var out LoadDistributions
	var err error
	if out.Uniform, err = grow(false, false); err != nil {
		return out, err
	}
	if out.JoinOnly, err = grow(true, false); err != nil {
		return out, err
	}
	if out.JoinAndRun, err = grow(true, true); err != nil {
		return out, err
	}
	if w != nil {
		fmt.Fprintf(w, "== Fig 19: load balance (%d nodes, %d keys) ==\n", nodes, keys)
		for _, row := range []struct {
			name  string
			loads []int
		}{
			{"uniform ids (no LB)", out.Uniform},
			{"join-time LB only (19a)", out.JoinOnly},
			{"join-time + runtime LB (19b)", out.JoinAndRun},
		} {
			s := stats.Summarize(row.loads)
			sorted := append([]int(nil), row.loads...)
			sort.Ints(sorted)
			fmt.Fprintf(w, "%-30s mean=%.1f max=%d p95=%.0f cov=%.2f gini=%.3f\n",
				row.name, s.Mean, s.Max, s.P95, s.CoV, stats.Gini(row.loads))
			fmt.Fprintf(w, "%-30s %s\n", "  nodes by load:", viz.Sparkline(viz.Downsample(sorted, 80)))
		}
	}
	return out, nil
}

// AblationResult is a pair of cost rows for an on/off comparison.
type AblationResult struct {
	Label    string
	On, Off  Row
	OnLabel  string
	OffLabel string
}

// AblationAggregation (DESIGN.md A1) quantifies the sibling-aggregation
// optimization: messages with and without batching, same data and queries.
func AblationAggregation(sc Scale, w io.Writer) ([]AblationResult, error) {
	run := func(disable bool) ([]Point, error) {
		return Sweep(SweepConfig{
			Dims: 2, Bits: bits2D, Scales: []Scale{sc},
			Kind: Q1, Queries: 5, Seed: 31,
			Engine: squid.Options{DisableAggregation: disable},
		})
	}
	on, err := run(false)
	if err != nil {
		return nil, err
	}
	off, err := run(true)
	if err != nil {
		return nil, err
	}
	var out []AblationResult
	for i := range on[0].Rows {
		out = append(out, AblationResult{
			Label: on[0].Rows[i].Query, On: on[0].Rows[i], Off: off[0].Rows[i],
			OnLabel: "aggregated", OffLabel: "per-cluster",
		})
	}
	if w != nil {
		fmt.Fprintln(w, "== Ablation A1: sibling aggregation ==")
		for _, r := range out {
			fmt.Fprintf(w, "%-28s payload msgs %5d (on) vs %5d (off)  total %5d vs %5d\n",
				r.Label, r.On.PayloadHops, r.Off.PayloadHops, r.On.Messages, r.Off.Messages)
		}
	}
	return out, nil
}

// AblationPruning (A2) contrasts distributed refinement against the
// paper's strawman (Section 3.4.1): computing every exact cluster at the
// initiator and sending one message per cluster.
func AblationPruning(sc Scale, w io.Writer) ([]AblationResult, error) {
	run := func(initial int) ([]Point, error) {
		return Sweep(SweepConfig{
			Dims: 2, Bits: bits2D, Scales: []Scale{sc},
			Kind: Q1, Queries: 5, Seed: 37,
			Engine: squid.Options{InitialClusters: initial, DisableAggregation: initial > 1000},
		})
	}
	distributed, err := run(0) // default: one refinement step at the root
	if err != nil {
		return nil, err
	}
	central, err := run(1 << 17) // effectively full central decomposition
	if err != nil {
		return nil, err
	}
	var out []AblationResult
	for i := range distributed[0].Rows {
		out = append(out, AblationResult{
			Label: distributed[0].Rows[i].Query,
			On:    distributed[0].Rows[i], Off: central[0].Rows[i],
			OnLabel: "distributed refinement", OffLabel: "central clusters",
		})
	}
	if w != nil {
		fmt.Fprintln(w, "== Ablation A2: distributed refinement+pruning vs central cluster enumeration ==")
		for _, r := range out {
			fmt.Fprintf(w, "%-28s messages %5d vs %5d   processing nodes %4d vs %4d\n",
				r.Label, r.On.Messages, r.Off.Messages, r.On.ProcessingNodes, r.Off.ProcessingNodes)
		}
	}
	return out, nil
}

// BaselineRow is one system's cost on the shared baseline workload.
type BaselineRow struct {
	System   string
	Recall   float64
	Messages int
	Visited  int
}

// BaselinesCompare (A3) runs Squid, Gnutella-style flooding (full TTL and
// TTL=3) and the distributed inverted index on the same corpus and an
// exact two-keyword query, reporting recall and message cost.
func BaselinesCompare(nodes, elems int, w io.Writer) ([]BaselineRow, error) {
	space, err := keyspace.NewWordSpace(2, bits2D)
	if err != nil {
		return nil, err
	}
	vocab := workload.NewVocabulary(41, 500, 1.2)
	tuples := workload.KeyTuples(vocab, 42, elems, 2)
	elemsList := workload.Elements(tuples)
	target := tuples[0] // query the most natural tuple
	query := keyspace.Query{keyspace.Exact(target[0]), keyspace.Exact(target[1])}

	truth := 0
	for _, tu := range tuples {
		if space.Matches(query, tu) {
			truth++
		}
	}
	if truth == 0 {
		truth = 1
	}
	var rows []BaselineRow

	// Squid.
	nw, err := build(nodes, space, 43, squid.Options{})
	if err != nil {
		return nil, err
	}
	if err := nw.Preload(elemsList); err != nil {
		return nil, err
	}
	res, qm := nw.Query(0, query)
	if res.Err != nil {
		return nil, res.Err
	}
	rows = append(rows, BaselineRow{
		System: "squid", Recall: float64(len(res.Matches)) / float64(truth),
		Messages: qm.Messages(), Visited: len(qm.RoutingNodes) + len(qm.ProcessingNodes),
	})

	// Flooding.
	fl, err := gnutella.Build(space, nodes, 4, 44)
	if err != nil {
		return nil, err
	}
	for i, e := range elemsList {
		fl.Publish(i%nodes, e)
	}
	full := fl.Query(0, query, nodes)
	rows = append(rows, BaselineRow{
		System: "flooding (full TTL)", Recall: float64(len(full.Matches)) / float64(truth),
		Messages: full.Messages, Visited: full.Visited,
	})
	short := fl.Query(0, query, 3)
	rows = append(rows, BaselineRow{
		System: "flooding (TTL=3)", Recall: float64(len(short.Matches)) / float64(truth),
		Messages: short.Messages, Visited: short.Visited,
	})

	// Inverted index.
	iv, err := invindex.BuildNetwork(bits2D*2, nodes, 45)
	if err != nil {
		return nil, err
	}
	for i, e := range elemsList {
		iv.Publish(i, e)
	}
	iv.Quiesce()
	ir := iv.Query(0, target)
	rows = append(rows, BaselineRow{
		System: "inverted index", Recall: float64(len(ir.Matches)) / float64(truth),
		Messages: ir.Messages, Visited: 0,
	})

	if w != nil {
		fmt.Fprintf(w, "== Baselines (A3): exact query %s on %d nodes, %d elements ==\n", query, nodes, elems)
		for _, r := range rows {
			fmt.Fprintf(w, "%-22s recall=%.2f messages=%d visited=%d\n", r.System, r.Recall, r.Messages, r.Visited)
		}
	}
	return rows, nil
}

// InverseSFCRow compares Squid and the Andrzejak-Xu index on a one-
// attribute range query.
type InverseSFCRow struct {
	System   string
	Nodes    int // nodes/zones touched
	Messages int
}

// BaselineInverseSFC (A4) resolves the same single-attribute range on
// Squid (attribute + wildcard dimensions over Chord) and on the
// inverse-SFC-over-CAN comparator.
func BaselineInverseSFC(nodes, values int, w io.Writer) ([]InverseSFCRow, error) {
	// Shared attribute workload: memory sizes in [0, 4096).
	rng := rand.New(rand.NewSource(51))
	attrs := make([]float64, values)
	for i := range attrs {
		attrs[i] = float64(rng.Intn(4096))
	}
	rangeLo, rangeHi := 256.0, 512.0

	// Squid: 2-D space (memory, name-wildcard), range on the attribute.
	space, err := keyspace.New(sfc.MustHilbert(2, 16),
		keyspace.MustNumericDim("memory", 16, 0, 4096),
		keyspace.MustWordDim("name", 16),
	)
	if err != nil {
		return nil, err
	}
	nw, err := build(nodes, space, 52, squid.Options{})
	if err != nil {
		return nil, err
	}
	elems := make([]squid.Element, values)
	for i, a := range attrs {
		elems[i] = squid.Element{Values: []string{fmt.Sprintf("%.0f", a), fmt.Sprintf("host%d", i)}, Data: fmt.Sprintf("r%d", i)}
	}
	if err := nw.Preload(elems); err != nil {
		return nil, err
	}
	q := keyspace.Query{keyspace.Range("256", "512"), keyspace.Wildcard()}
	res, qm := nw.Query(0, q)
	if res.Err != nil {
		return nil, res.Err
	}
	rows := []InverseSFCRow{{
		System: "squid (SFC->Chord)", Nodes: len(qm.ProcessingNodes), Messages: qm.Messages(),
	}}

	// Andrzejak-Xu: inverse SFC over CAN, 2-D zones, same value width.
	network, err := can.Build(2, 8, nodes, 53)
	if err != nil {
		return nil, err
	}
	ix, err := isfc.New(network, 2, 8)
	if err != nil {
		return nil, err
	}
	scale := float64(uint64(1)<<ix.ValueBits()) / 4096.0
	for _, a := range attrs {
		ix.Add(uint64(a * scale))
	}
	cost, err := ix.Query(0, uint64(rangeLo*scale), uint64(rangeHi*scale))
	if err != nil {
		return nil, err
	}
	rows = append(rows, InverseSFCRow{
		System: "andrzejak-xu (inverse SFC->CAN)", Nodes: cost.Zones, Messages: cost.Messages,
	})

	if w != nil {
		fmt.Fprintf(w, "== Baseline A4: 1-attribute range [256,512] of %d values on %d nodes ==\n", values, nodes)
		for _, r := range rows {
			fmt.Fprintf(w, "%-34s nodes=%d messages=%d\n", r.System, r.Nodes, r.Messages)
		}
		fmt.Fprintf(w, "(matches found by squid: %d)\n", len(res.Matches))
	}
	return rows, nil
}
