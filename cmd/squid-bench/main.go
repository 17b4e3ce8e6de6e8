// Command squid-bench drives the paper's experiments at configurable
// scale, up to the full HPDC'03 setup (1 000-5 400 nodes, 2*10^5-10^6
// keys). It prints the same rows/series each figure reports; see
// EXPERIMENTS.md for the paper-vs-measured comparison.
//
//	squid-bench -exp fig9 -factor 0.1     # 10% of paper scale
//	squid-bench -exp all  -factor 0.02    # everything, laptop scale
//	squid-bench -exp fig19 -nodes 200 -keys 40000
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"squid/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: fig9..fig19, a1..a7, or all")
		factor     = flag.Float64("factor", 0.02, "fraction of the paper's scale for fig9-fig17 (1.0 = 1000-5400 nodes, 2e5-1e6 keys)")
		nodes      = flag.Int("nodes", 100, "network size for fig19/a3/a4/a5")
		keys       = flag.Int("keys", 20000, "stored keys for fig18/fig19/a5")
		csv        = flag.String("csv", "", "also write sweep results (fig9-fig17) as CSV to this file")
		benchJSON  = flag.String("bench-json", "", "run the hot-path benchmark suite instead of figures and write the snapshot (BENCH_*.json) to this file")
		schedJSON  = flag.String("sched-json", "", "run the concurrent-load scheduler benchmark (serial vs worker pool under deadline-bounded bursts) and write the snapshot (BENCH_2.json) to this file")
		desJSON    = flag.String("des-json", "", "run the discrete-event backend's planet-scale sweep (100 to 10000 nodes, full churn+query storms) and write the snapshot (BENCH_4.json) to this file")
		streamJSON = flag.String("stream-json", "", "run the streaming scenarios (top-k early-termination savings, popular-cluster cache hit rate under a Zipf storm) and write the snapshot (BENCH_5.json) to this file")
		traceDemo  = flag.Bool("trace-demo", false, "run one traced query under message drops and render its refinement tree (uses -nodes, -keys, -drop)")
		drop       = flag.Float64("drop", 0.05, "message drop rate for -trace-demo")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("squid-bench: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("squid-bench: cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	err := func() error {
		if *benchJSON != "" {
			return runBenchJSON(*benchJSON, *factor)
		}
		if *schedJSON != "" {
			return runSchedJSON(*schedJSON)
		}
		if *desJSON != "" {
			return runDesJSON(*desJSON)
		}
		if *streamJSON != "" {
			return runStreamJSON(*streamJSON)
		}
		if *traceDemo {
			return runTraceDemo(*nodes, *keys, *drop)
		}
		return run(*exp, *factor, *nodes, *keys, *csv)
	}()
	if *memProfile != "" {
		f, ferr := os.Create(*memProfile)
		if ferr != nil {
			log.Fatalf("squid-bench: %v", ferr)
		}
		runtime.GC()
		if perr := pprof.WriteHeapProfile(f); perr != nil {
			log.Fatalf("squid-bench: memprofile: %v", perr)
		}
		f.Close()
	}
	if err != nil {
		if *cpuProfile != "" {
			pprof.StopCPUProfile() // flush before the non-deferred exit
		}
		log.Fatalf("squid-bench: %v", err)
	}
}

func run(exp string, factor float64, nodes, keys int, csvPath string) error {
	w := os.Stdout
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
		fmt.Fprintf(w, "(%s done in %v)\n\n", f.name, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
