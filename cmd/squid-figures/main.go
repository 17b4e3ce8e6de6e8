// Command squid-figures drives the paper's experiments at configurable
// scale, up to the full HPDC'03 setup (1 000-5 400 nodes, 2*10^5-10^6
// keys). It prints the same rows/series each figure reports; see
// EXPERIMENTS.md for the paper-vs-measured comparison. Every figure runs on
// the discrete-event core, so stdout is a function of the flags alone; the
// per-figure wall times go to stderr. testdata/small.golden holds the
// output of `-exp all -factor 0.002 -keys 4000 -nodes 60`.
//
//	squid-figures -exp fig9 -factor 0.1     # 10% of paper scale
//	squid-figures -exp all  -factor 0.02    # everything, laptop scale
//	squid-figures -exp fig19 -nodes 200 -keys 40000
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"squid/internal/experiments"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment: fig9..fig19, a1..a7, or all")
		factor = flag.Float64("factor", 0.02, "fraction of the paper's scale for fig9-fig17 (1.0 = 1000-5400 nodes, 2e5-1e6 keys)")
		nodes  = flag.Int("nodes", 100, "network size for fig19/a3/a4/a5")
		keys   = flag.Int("keys", 20000, "stored keys for fig18/fig19/a5")
		csv    = flag.String("csv", "", "also write sweep results (fig9-fig17) as CSV to this file")
	)
	flag.Parse()
	if err := run(os.Stdout, os.Stderr, *exp, *factor, *nodes, *keys, *csv); err != nil {
		log.Fatalf("squid-figures: %v", err)
	}
}

// run writes the chosen figures to w and each figure's wall time to timing.
func run(w, timing io.Writer, exp string, factor float64, nodes, keys int, csvPath string) error {
	var csvW io.Writer
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		csvW = f
	}
	type figure struct {
		name string
		fn   func() error
	}
	sweepN := func(name string, fn func(float64, io.Writer) ([]experiments.Point, error)) func() error {
		return func() error {
			pts, err := fn(factor, w)
			if err == nil && csvW != nil {
				experiments.WriteCSV(csvW, name, pts)
			}
			return err
		}
	}
	figures := []figure{
		{"fig9", sweepN("fig9", experiments.Fig09)},
		{"fig10", sweepN("fig10", experiments.Fig10)},
		{"fig11", sweepN("fig11", experiments.Fig11)},
		{"fig12", sweepN("fig12", experiments.Fig12)},
		{"fig13", sweepN("fig13", experiments.Fig13)},
		{"fig14", sweepN("fig14", experiments.Fig14)},
		{"fig15", sweepN("fig15", experiments.Fig15)},
		{"fig16", sweepN("fig16", experiments.Fig16)},
		{"fig17", sweepN("fig17", experiments.Fig17)},
		{"fig18", func() error { _, err := experiments.Fig18(keys, w); return err }},
		{"fig19", func() error { _, err := experiments.Fig19(nodes, keys, w); return err }},
		{"a1", func() error {
			_, err := experiments.AblationAggregation(experiments.Scale{Nodes: nodes, Keys: keys}, w)
			return err
		}},
		{"a2", func() error {
			_, err := experiments.AblationPruning(experiments.Scale{Nodes: nodes, Keys: keys}, w)
			return err
		}},
		{"a3", func() error { _, err := experiments.BaselinesCompare(nodes, keys/2, w); return err }},
		{"a4", func() error { _, err := experiments.BaselineInverseSFC(nodes, keys/2, w); return err }},
		{"a5", func() error { _, err := experiments.AblationLoadBalance(min(nodes, 60), keys/2, w); return err }},
		{"a6", func() error {
			_, err := experiments.AblationCurve(experiments.Scale{Nodes: nodes, Keys: keys}, w)
			return err
		}},
		{"a7", func() error {
			_, err := experiments.AblationHotSpot(experiments.Scale{Nodes: nodes, Keys: keys}, 4, w)
			return err
		}},
	}

	want := strings.ToLower(exp)
	ran := 0
	for _, f := range figures {
		if want != "all" && want != f.name {
			continue
		}
		start := time.Now()
		if err := f.fn(); err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(timing, "(%s done in %v)\n", f.name, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
