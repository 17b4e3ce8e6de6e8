package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"squid/internal/chord"
	"squid/internal/keyspace"
	"squid/internal/loadbalance"
	"squid/internal/sfc"
	"squid/internal/sim"
	"squid/internal/squid"
	"squid/internal/stats"
	"squid/internal/workload"
)

// LoadBalanceRow is one configuration's balance quality.
type LoadBalanceRow struct {
	Config string
	Gini   float64
	CoV    float64
	MaxAvg float64
}

// AblationLoadBalance (A5) sweeps the join-time sample count J and adds
// the virtual-node configuration, measuring final balance quality on the
// same skewed corpus.
func AblationLoadBalance(nodes, keys int, w io.Writer) ([]LoadBalanceRow, error) {
	grow := func(samples int) (*sim.Network, error) {
		space, err := keyspace.NewWordSpace(2, bits2D)
		if err != nil {
			return nil, err
		}
		nw, err := build(1, space, 61, squid.Options{})
		if err != nil {
			return nil, err
		}
		vocab := workload.NewVocabulary(62, maxi(200, keys/20), 1.2)
		tuples := workload.KeyTuples(vocab, 63, keys, 2)
		if err := nw.Preload(workload.Elements(tuples)); err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(64))
		randID := func() chord.ID {
			return chord.ID(rng.Uint64() & ((uint64(1) << space.IndexBits()) - 1))
		}
		for len(nw.Peers) < nodes {
			var err error
			if samples <= 1 {
				_, err = nw.AddPeer(randID())
			} else {
				_, err = loadbalance.SampledJoin(nw, samples, randID)
			}
			if err != nil {
				return nil, err
			}
		}
		return nw, nil
	}

	row := func(name string, loads []int) LoadBalanceRow {
		s := stats.Summarize(loads)
		r := LoadBalanceRow{Config: name, Gini: stats.Gini(loads), CoV: s.CoV}
		if s.Mean > 0 {
			r.MaxAvg = float64(s.Max) / s.Mean
		}
		return r
	}

	var rows []LoadBalanceRow
	for _, j := range []int{1, 2, 5, 10} {
		nw, err := grow(j)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row(fmt.Sprintf("join sampling J=%d", j), nw.LoadVector()))
	}
	// Join sampling + runtime neighbor balancing.
	nw, err := grow(5)
	if err != nil {
		return nil, err
	}
	if _, err := loadbalance.Balance(nw, 2.0, 10); err != nil {
		return nil, err
	}
	rows = append(rows, row("J=5 + neighbor runtime LB", nw.LoadVector()))

	// Virtual nodes: same total virtual count spread over nodes/4 hosts.
	nwv, err := grow(1)
	if err != nil {
		return nil, err
	}
	vp, err := loadbalance.NewVirtualPool(nwv, maxi(2, nodes/4))
	if err != nil {
		return nil, err
	}
	vp.MigrateAll(10 * nodes)
	rows = append(rows, row(fmt.Sprintf("virtual nodes (%d hosts)", maxi(2, nodes/4)), vp.HostLoads()))

	if w != nil {
		fmt.Fprintf(w, "== Ablation A5: load balancing (%d nodes, %d keys) ==\n", nodes, keys)
		for _, r := range rows {
			fmt.Fprintf(w, "%-28s gini=%.3f cov=%.2f max/avg=%.1f\n", r.Config, r.Gini, r.CoV, r.MaxAvg)
		}
	}
	return rows, nil
}

// HotSpotRow reports one repetition's cost of a hot query.
type HotSpotRow struct {
	Run      int
	Probes   int
	Messages int
	Matches  int
}

// AblationHotSpot (A7, extension) measures the probe cache: the same
// popular query repeated from one peer. The first run pays the full
// FindSuccessor handshakes; warm runs skip them — the hot-spot mitigation
// the paper lists as future work.
func AblationHotSpot(sc Scale, repeats int, w io.Writer) ([]HotSpotRow, error) {
	if repeats < 2 {
		repeats = 2
	}
	cfg := SweepConfig{
		Dims: 2, Bits: bits2D, Scales: []Scale{sc}, Kind: Q1, Queries: 1, Seed: 81,
		Engine: squid.Options{ProbeCacheSize: 512},
	}
	nw, vocab, err := BuildNetwork(cfg, sc)
	if err != nil {
		return nil, err
	}
	gen := workload.NewQueryGen(vocab, 82, 2)
	q := gen.Q1()
	var rows []HotSpotRow
	for i := 0; i < repeats; i++ {
		res, qm := nw.Query(0, q)
		if res.Err != nil {
			return nil, res.Err
		}
		rows = append(rows, HotSpotRow{
			Run: i, Probes: qm.ProbeMessages, Messages: qm.Messages(), Matches: len(res.Matches),
		})
	}
	if w != nil {
		fmt.Fprintf(w, "== Ablation A7: probe cache under a hot query %s (%d nodes, %d keys) ==\n", q, sc.Nodes, sc.Keys)
		for _, r := range rows {
			fmt.Fprintf(w, "run %d: probes=%d messages=%d matches=%d\n", r.Run, r.Probes, r.Messages, r.Matches)
		}
	}
	return rows, nil
}

// CurveRow is one curve's clustering quality and query cost.
type CurveRow struct {
	Curve           string
	AvgClusters     float64
	AvgProcessing   float64
	AvgMessages     float64
	AvgMatchesFound float64
}

// AblationCurve (A6) compares Hilbert against Z-order (Morton) as the
// dimension-reducing mapping: clusters per query and the resulting query
// cost on identical data. Hilbert's better locality should yield fewer
// clusters and cheaper queries — the reason the paper picks it.
func AblationCurve(sc Scale, w io.Writer) ([]CurveRow, error) {
	const dims, axisBits = 2, 16
	vocab := workload.NewVocabulary(71, maxi(200, sc.Keys/20), 1.2)
	tuples := workload.KeyTuples(vocab, 72, sc.Keys, dims)
	gen := workload.NewQueryGen(vocab, 73, dims)
	queries := make([]keyspace.Query, 5)
	for i := range queries {
		queries[i] = gen.Q1()
	}

	var rows []CurveRow
	for _, curve := range []sfc.Curve{sfc.MustHilbert(dims, axisBits), sfc.MustMorton(dims, axisBits)} {
		dimsCodec := make([]keyspace.Dimension, dims)
		for i := range dimsCodec {
			dimsCodec[i] = keyspace.MustWordDim(fmt.Sprintf("kw%d", i), axisBits)
		}
		space, err := keyspace.New(curve, dimsCodec...)
		if err != nil {
			return nil, err
		}
		nw, err := build(sc.Nodes, space, 74, squid.Options{})
		if err != nil {
			return nil, err
		}
		if err := nw.Preload(workload.Elements(tuples)); err != nil {
			return nil, err
		}
		r := CurveRow{Curve: curve.Name()}
		for qi, q := range queries {
			region, err := space.Region(q)
			if err != nil {
				return nil, err
			}
			r.AvgClusters += float64(len(sfc.Clusters(curve, region)))
			res, qm := nw.Query(qi%len(nw.Peers), q)
			if res.Err != nil {
				return nil, res.Err
			}
			r.AvgProcessing += float64(len(qm.ProcessingNodes))
			r.AvgMessages += float64(qm.Messages())
			r.AvgMatchesFound += float64(len(res.Matches))
		}
		n := float64(len(queries))
		r.AvgClusters /= n
		r.AvgProcessing /= n
		r.AvgMessages /= n
		r.AvgMatchesFound /= n
		rows = append(rows, r)
	}
	if w != nil {
		fmt.Fprintf(w, "== Ablation A6: curve choice (%d nodes, %d keys) ==\n", sc.Nodes, sc.Keys)
		for _, r := range rows {
			fmt.Fprintf(w, "%-8s clusters/query=%.1f processing=%.1f messages=%.1f matches=%.1f\n",
				r.Curve, r.AvgClusters, r.AvgProcessing, r.AvgMessages, r.AvgMatchesFound)
		}
	}
	return rows, nil
}
