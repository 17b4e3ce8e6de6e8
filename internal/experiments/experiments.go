// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 4) on simulated networks, at configurable scale, from
// reduced sizes up to the full 1 000-5 400 nodes and 2*10^5-10^6 keys;
// cmd/squid-figures drives it. See DESIGN.md Section 4 for the experiment index and EXPERIMENTS.md for
// recorded paper-vs-measured results.
package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"squid/internal/dessim"
	"squid/internal/keyspace"
	"squid/internal/sim"
	"squid/internal/squid"
	"squid/internal/viz"
	"squid/internal/workload"
)

// Scale is one (network size, stored keys) point of the paper's sweep.
type Scale struct {
	Nodes int
	Keys  int
}

// PaperScales returns the paper's five sweep points scaled by factor
// (factor 1 = the paper's 1 000-5 400 nodes and 2*10^5-10^6 keys).
func PaperScales(factor float64) []Scale {
	full := []Scale{
		{1000, 200_000},
		{2100, 400_000},
		{3200, 600_000},
		{4300, 800_000},
		{5400, 1_000_000},
	}
	out := make([]Scale, len(full))
	for i, s := range full {
		out[i] = Scale{Nodes: max(2, int(float64(s.Nodes)*factor)), Keys: max(10, int(float64(s.Keys)*factor))}
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Row is one query's cost at one scale — the paper's per-query metrics.
type Row struct {
	Query           string
	Matches         int
	RoutingNodes    int
	ProcessingNodes int
	DataNodes       int
	Messages        int
	PayloadHops     int
	Transmissions   int
	// ClusteringRatio is matches per data node — the paper's locality
	// measure (Section 4.1.1).
	ClusteringRatio float64
}

// Point is all queries' rows at one scale.
type Point struct {
	Scale Scale
	Rows  []Row
}

// QueryKind selects the paper's query classes.
type QueryKind int

const (
	// Q1: one keyword or partial keyword (Section 4.1, type Q1).
	Q1 QueryKind = iota
	// Q2: two-three keywords, at least one partial.
	Q2
	// Q3Keyword: range query of the form (keyword, range, *).
	Q3Keyword
	// Q3Ranges: range query with a range on every dimension.
	Q3Ranges
)

func (k QueryKind) String() string {
	switch k {
	case Q1:
		return "Q1"
	case Q2:
		return "Q2"
	case Q3Keyword:
		return "Q3(keyword,range,*)"
	case Q3Ranges:
		return "Q3(range,range,range)"
	}
	return "?"
}

// SweepConfig parameterizes a query-cost sweep.
type SweepConfig struct {
	// Dims and Bits set the keyword-space geometry (paper: 2x32, 3x21).
	Dims, Bits int
	// Scales to evaluate; data and ring are rebuilt per scale.
	Scales []Scale
	// Kind selects the query class; Queries how many distinct queries.
	Kind    QueryKind
	Queries int
	// VocabSize controls the synthetic corpus (0: scaled from keys).
	VocabSize int
	// Seed drives all randomness.
	Seed int64
	// Engine overrides the per-peer engine options (ablations).
	Engine squid.Options
	// Progress, when non-nil, receives status lines.
	Progress io.Writer
}

func (c SweepConfig) vocabSize(keys int) int {
	if c.VocabSize > 0 {
		return c.VocabSize
	}
	// Enough words that `keys` distinct tuples exist comfortably under the
	// Zipf skew.
	v := keys / 20
	if v < 200 {
		v = 200
	}
	if v > 60_000 {
		v = 60_000
	}
	return v
}

// Sweep runs the configured query set at every scale. The same queries are
// evaluated at each scale, as in the paper ("query1".."query6" tracked
// across system sizes).
func Sweep(cfg SweepConfig) ([]Point, error) {
	if cfg.Queries <= 0 {
		cfg.Queries = 6
	}
	var points []Point
	var queries []keyspace.Query
	for _, sc := range cfg.Scales {
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "# scale: %d nodes, %d keys\n", sc.Nodes, sc.Keys)
		}
		nw, vocab, err := BuildNetwork(cfg, sc)
		if err != nil {
			return nil, err
		}
		if queries == nil {
			queries = makeQueries(cfg, vocab)
		}
		pt := Point{Scale: sc}
		for qi, q := range queries {
			res, qm := nw.Query(qi%len(nw.Peers), q)
			if res.Err != nil {
				return nil, fmt.Errorf("experiments: query %s: %w", q, res.Err)
			}
			pt.Rows = append(pt.Rows, Row{
				Query:           q.String(),
				Matches:         len(res.Matches),
				RoutingNodes:    len(qm.RoutingNodes),
				ProcessingNodes: len(qm.ProcessingNodes),
				DataNodes:       len(qm.DataNodes),
				Messages:        qm.Messages(),
				PayloadHops:     qm.PayloadHops,
				Transmissions:   qm.TotalTransmissions(),
				ClusteringRatio: qm.ClusteringRatio(),
			})
		}
		points = append(points, pt)
	}
	return points, nil
}

// BuildNetwork constructs a network at one scale with the sweep's word
// workload preloaded.
func BuildNetwork(cfg SweepConfig, sc Scale) (*sim.Network, *workload.Vocabulary, error) {
	space, err := keyspace.NewWordSpace(cfg.Dims, cfg.Bits)
	if err != nil {
		return nil, nil, err
	}
	nw, err := build(sc.Nodes, space, cfg.Seed, cfg.Engine)
	if err != nil {
		return nil, nil, err
	}
	vocab := workload.NewVocabulary(cfg.Seed+1, cfg.vocabSize(sc.Keys), 1.2)
	tuples := workload.KeyTuples(vocab, cfg.Seed+2, sc.Keys, cfg.Dims)
	if err := nw.Preload(workload.Elements(tuples)); err != nil {
		return nil, nil, err
	}
	return nw, vocab, nil
}

// build constructs a network on the event core. Every figure runs there, so
// its rows are a function of the seeds alone.
func build(nodes int, space *keyspace.Space, seed int64, eng squid.Options) (*sim.Network, error) {
	nw, err := dessim.Build(dessim.Config{Nodes: nodes, Space: space, Seed: seed, Engine: eng})
	if err != nil {
		return nil, err
	}
	return nw.Network, nil
}

func makeQueries(cfg SweepConfig, vocab *workload.Vocabulary) []keyspace.Query {
	gen := workload.NewQueryGen(vocab, cfg.Seed+3, cfg.Dims)
	out := make([]keyspace.Query, cfg.Queries)
	for i := range out {
		switch cfg.Kind {
		case Q1:
			out[i] = gen.Q1()
		case Q2:
			out[i] = gen.Q2()
		case Q3Keyword:
			out[i] = gen.Q3Keyword()
		default:
			out[i] = gen.Q3Ranges()
		}
	}
	return out
}

// WriteCSV renders sweep points as CSV (one row per query per scale) for
// external plotting tools.
func WriteCSV(w io.Writer, figure string, points []Point) {
	fmt.Fprintln(w, "figure,nodes,keys,query,matches,routing,processing,data,messages,payload,transmissions,clustering")
	for _, pt := range points {
		for _, r := range pt.Rows {
			fmt.Fprintf(w, "%s,%d,%d,%q,%d,%d,%d,%d,%d,%d,%d,%.2f\n",
				figure, pt.Scale.Nodes, pt.Scale.Keys, r.Query, r.Matches, r.RoutingNodes,
				r.ProcessingNodes, r.DataNodes, r.Messages, r.PayloadHops, r.Transmissions, r.ClusteringRatio)
		}
	}
}

// WriteTable renders sweep points as aligned text, one block per scale —
// the rows the paper plots in its figures — followed by per-query scaling
// sparklines when the sweep has more than one scale.
func WriteTable(w io.Writer, title string, points []Point) {
	fmt.Fprintf(w, "== %s ==\n", title)
	for _, pt := range points {
		fmt.Fprintf(w, "-- %d nodes, %d keys --\n", pt.Scale.Nodes, pt.Scale.Keys)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "query\tmatches\trouting\tprocessing\tdata\tmessages\ttransmissions\tclustering")
		for _, r := range pt.Rows {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%.1f\n",
				r.Query, r.Matches, r.RoutingNodes, r.ProcessingNodes, r.DataNodes, r.Messages, r.Transmissions, r.ClusteringRatio)
		}
		tw.Flush()
	}
	if len(points) > 1 {
		writeScalingCharts(w, points)
	}
}

// writeScalingCharts renders each query's processing-node growth across
// scales as a sparkline — the visual shape of the paper's line plots.
func writeScalingCharts(w io.Writer, points []Point) {
	xLabels := make([]string, len(points))
	for i, pt := range points {
		xLabels[i] = fmt.Sprintf("%dn/%dk", pt.Scale.Nodes, pt.Scale.Keys/1000)
	}
	series := map[string][]int{}
	var order []string
	for qi, r := range points[0].Rows {
		name := r.Query
		if len(name) > 16 {
			name = name[:13] + "..."
		}
		order = append(order, name)
		vals := make([]int, len(points))
		for pi, pt := range points {
			if qi < len(pt.Rows) {
				vals[pi] = pt.Rows[qi].ProcessingNodes
			}
		}
		series[name] = vals
	}
	viz.Series(w, "processing nodes across scales:", xLabels, series, order)
}
