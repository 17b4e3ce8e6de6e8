package experiments

import (
	"io"
	"strings"
	"testing"

	"squid/internal/stats"
)

// Tiny scales keep the suite fast; the shapes under test are the paper's
// qualitative claims, which hold at any scale.
var tiny = []Scale{{Nodes: 40, Keys: 3000}, {Nodes: 80, Keys: 6000}}

func TestPaperScales(t *testing.T) {
	full := PaperScales(1)
	if full[0].Nodes != 1000 || full[4].Keys != 1_000_000 {
		t.Errorf("full scales wrong: %+v", full)
	}
	small := PaperScales(0.01)
	if small[0].Nodes != 10 || small[4].Nodes != 54 {
		t.Errorf("scaled wrong: %+v", small)
	}
	for _, s := range PaperScales(0.000001) {
		if s.Nodes < 2 || s.Keys < 10 {
			t.Errorf("degenerate scale %+v", s)
		}
	}
}

func TestSweepShapeMatchesPaper(t *testing.T) {
	pts, err := Sweep(SweepConfig{
		Dims: 2, Bits: bits2D, Scales: tiny, Kind: Q1, Queries: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, pt := range pts {
		for _, r := range pt.Rows {
			// Paper Fig 9: processing nodes are a fraction of the network;
			// data nodes are a subset of processing nodes.
			if r.ProcessingNodes >= pt.Scale.Nodes {
				t.Errorf("%v: processing %d >= network %d", r.Query, r.ProcessingNodes, pt.Scale.Nodes)
			}
			if r.DataNodes > r.ProcessingNodes {
				t.Errorf("%v: data %d > processing %d", r.Query, r.DataNodes, r.ProcessingNodes)
			}
			if r.Matches > 0 && r.DataNodes == 0 {
				t.Errorf("%v: matches without data nodes", r.Query)
			}
			if r.Transmissions < r.Messages {
				t.Errorf("%v: transmissions < messages", r.Query)
			}
		}
	}
	// Same queries tracked across scales (the paper's methodology).
	for i := range pts[0].Rows {
		if pts[0].Rows[i].Query != pts[1].Rows[i].Query {
			t.Errorf("query set changed across scales")
		}
	}
	var sb strings.Builder
	WriteTable(&sb, "test", pts)
	if !strings.Contains(sb.String(), "processing") {
		t.Error("table missing header")
	}
}

// TestQ2CheaperThanQ1 checks the paper's Fig 11 observation: "the results
// are significantly better than those for type Q1 queries" because both
// keywords being (partially) known tightens pruning.
func TestQ2CheaperThanQ1(t *testing.T) {
	sc := []Scale{{Nodes: 60, Keys: 6000}}
	q1, err := Sweep(SweepConfig{Dims: 2, Bits: bits2D, Scales: sc, Kind: Q1, Queries: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Sweep(SweepConfig{Dims: 2, Bits: bits2D, Scales: sc, Kind: Q2, Queries: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	avg := func(rows []Row) float64 {
		s := 0
		for _, r := range rows {
			s += r.ProcessingNodes
		}
		return float64(s) / float64(len(rows))
	}
	a1, a2 := avg(q1[0].Rows), avg(q2[0].Rows)
	t.Logf("avg processing nodes: Q1=%.1f Q2=%.1f", a1, a2)
	if a2 > a1 {
		t.Errorf("Q2 should be cheaper than Q1: %.1f vs %.1f", a2, a1)
	}
}

// Test3DCostsMoreThan2D checks the paper's Section 4.1.2 claim: the same
// query class costs two-to-three times more in 3D (longer curve, more
// clusters).
func Test3DCostsMoreThan2D(t *testing.T) {
	sc := []Scale{{Nodes: 80, Keys: 6000}}
	d2, err := Sweep(SweepConfig{Dims: 2, Bits: bits2D, Scales: sc, Kind: Q1, Queries: 6, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	d3, err := Sweep(SweepConfig{Dims: 3, Bits: bits3D, Scales: sc, Kind: Q1, Queries: 6, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(rows []Row) (p int) {
		for _, r := range rows {
			p += r.ProcessingNodes
		}
		return
	}
	p2, p3 := sum(d2[0].Rows), sum(d3[0].Rows)
	t.Logf("total processing nodes: 2D=%d 3D=%d", p2, p3)
	if p3 <= p2 {
		t.Errorf("3D should cost more than 2D: %d vs %d", p3, p2)
	}
}

func TestFigureFunctionsRunTiny(t *testing.T) {
	// Every figure function must execute end to end at tiny scale.
	figures := []struct {
		name string
		fn   func(float64, io.Writer) ([]Point, error)
	}{
		{"Fig09", Fig09}, {"Fig10", Fig10}, {"Fig11", Fig11}, {"Fig12", Fig12},
		{"Fig13", Fig13}, {"Fig14", Fig14}, {"Fig15", Fig15}, {"Fig16", Fig16},
		{"Fig17", Fig17},
	}
	for _, f := range figures {
		pts, err := f.fn(0.004, io.Discard)
		if err != nil {
			t.Errorf("%s: %v", f.name, err)
			continue
		}
		if len(pts) == 0 || len(pts[0].Rows) == 0 {
			t.Errorf("%s: empty results", f.name)
		}
	}
	// And they render, tables plus scaling sparklines.
	pts, err := Fig09(0.004, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	WriteTable(&sb, "render", pts)
	if !strings.Contains(sb.String(), "processing nodes across scales") {
		t.Error("scaling charts missing from multi-scale table")
	}
	var csv strings.Builder
	WriteCSV(&csv, "fig9", pts)
	if !strings.Contains(csv.String(), "fig9,") {
		t.Error("csv rows missing")
	}
}

func TestFig18Skewed(t *testing.T) {
	dist, err := Fig18(20000, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.Counts) != 500 {
		t.Fatalf("intervals = %d", len(dist.Counts))
	}
	total := 0
	for _, c := range dist.Counts {
		total += c
	}
	if total != 20000 {
		t.Errorf("keys lost in bucketing: %d", total)
	}
	// The paper's whole Section 3.5 premise: the distribution is NOT
	// uniform.
	if dist.Gini < 0.2 {
		t.Errorf("index distribution suspiciously uniform: gini=%.3f", dist.Gini)
	}
	if float64(dist.Summary.Max) < 3*dist.Summary.Mean {
		t.Errorf("no hot intervals: max=%d mean=%.1f", dist.Summary.Max, dist.Summary.Mean)
	}
}

func TestFig19BalanceOrdering(t *testing.T) {
	dists, err := Fig19(30, 4000, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	gu := stats.Gini(dists.Uniform)
	gj := stats.Gini(dists.JoinOnly)
	gr := stats.Gini(dists.JoinAndRun)
	t.Logf("gini uniform=%.3f joinOnly=%.3f join+runtime=%.3f", gu, gj, gr)
	// Paper Fig 19: join-time LB improves on the raw distribution; adding
	// runtime LB improves it significantly further.
	if gj >= gu {
		t.Errorf("join-time LB should improve balance: %.3f vs %.3f", gj, gu)
	}
	if gr >= gj {
		t.Errorf("runtime LB should improve further: %.3f vs %.3f", gr, gj)
	}
}

func TestAblationAggregationSaves(t *testing.T) {
	rows, err := AblationAggregation(Scale{Nodes: 60, Keys: 6000}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	onPayload, offPayload := 0, 0
	for _, r := range rows {
		onPayload += r.On.PayloadHops
		offPayload += r.Off.PayloadHops
		if r.On.Matches != r.Off.Matches {
			t.Errorf("%s: aggregation changed results: %d vs %d", r.Label, r.On.Matches, r.Off.Matches)
		}
	}
	t.Logf("payload messages: aggregated=%d per-cluster=%d", onPayload, offPayload)
	if onPayload >= offPayload {
		t.Errorf("aggregation should reduce payload messages: %d vs %d", onPayload, offPayload)
	}
}

func TestAblationPruningSaves(t *testing.T) {
	rows, err := AblationPruning(Scale{Nodes: 60, Keys: 6000}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	onMsgs, offMsgs := 0, 0
	for _, r := range rows {
		onMsgs += r.On.Messages
		offMsgs += r.Off.Messages
		if r.On.Matches != r.Off.Matches {
			t.Errorf("%s: strategies disagree on results: %d vs %d", r.Label, r.On.Matches, r.Off.Matches)
		}
	}
	t.Logf("messages: distributed=%d central=%d", onMsgs, offMsgs)
	if onMsgs >= offMsgs {
		t.Errorf("distributed refinement should beat central enumeration: %d vs %d", onMsgs, offMsgs)
	}
}

func TestBaselinesCompare(t *testing.T) {
	rows, err := BaselinesCompare(50, 3000, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]BaselineRow{}
	for _, r := range rows {
		byName[r.System] = r
	}
	if byName["squid"].Recall < 1 {
		t.Errorf("squid recall %.2f, want 1.0 (the guarantee)", byName["squid"].Recall)
	}
	if byName["inverted index"].Recall < 1 {
		t.Errorf("inverted index recall %.2f on exact query", byName["inverted index"].Recall)
	}
	full := byName["flooding (full TTL)"]
	if full.Recall < 1 {
		t.Errorf("full flood recall %.2f", full.Recall)
	}
	if full.Messages <= byName["squid"].Messages {
		t.Errorf("flooding should cost more than squid: %d vs %d", full.Messages, byName["squid"].Messages)
	}
	if full.Visited < 50 {
		t.Errorf("full flood should visit every peer: %d", full.Visited)
	}
}

func TestBaselineInverseSFC(t *testing.T) {
	rows, err := BaselineInverseSFC(60, 4000, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Nodes == 0 {
			t.Errorf("%s touched no nodes", r.System)
		}
	}
}

func TestAblationLoadBalance(t *testing.T) {
	rows, err := AblationLoadBalance(25, 3000, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]LoadBalanceRow{}
	for _, r := range rows {
		byName[r.Config] = r
	}
	if byName["join sampling J=10"].Gini >= byName["join sampling J=1"].Gini {
		t.Errorf("more samples should improve balance: J=10 %.3f vs J=1 %.3f",
			byName["join sampling J=10"].Gini, byName["join sampling J=1"].Gini)
	}
}

func TestAblationHotSpot(t *testing.T) {
	rows, err := AblationHotSpot(Scale{Nodes: 50, Keys: 5000}, 3, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Matches != rows[2].Matches {
		t.Errorf("cache changed results: %d vs %d", rows[0].Matches, rows[2].Matches)
	}
	t.Logf("probes per run: %d, %d, %d", rows[0].Probes, rows[1].Probes, rows[2].Probes)
	if rows[0].Probes > 0 && rows[2].Probes >= rows[0].Probes {
		t.Errorf("warm run should probe less: %d vs %d", rows[2].Probes, rows[0].Probes)
	}
}

func TestAblationCurve(t *testing.T) {
	rows, err := AblationCurve(Scale{Nodes: 50, Keys: 5000}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var hilbert, morton CurveRow
	for _, r := range rows {
		if r.Curve == "hilbert" {
			hilbert = r
		} else {
			morton = r
		}
	}
	t.Logf("clusters/query: hilbert=%.1f morton=%.1f", hilbert.AvgClusters, morton.AvgClusters)
	if hilbert.AvgClusters > morton.AvgClusters {
		t.Errorf("hilbert should cluster better than morton: %.1f vs %.1f",
			hilbert.AvgClusters, morton.AvgClusters)
	}
	if hilbert.AvgMatchesFound != morton.AvgMatchesFound {
		t.Errorf("curves disagree on matches: %.1f vs %.1f", hilbert.AvgMatchesFound, morton.AvgMatchesFound)
	}
}
