// Command bench is the repository's end-to-end benchmark: four workloads
// over the public surface of the Squid stack (squid.New, Engine.QueryStream,
// Publish, Unpublish, chord.NewNode, Join, transport.ListenTCP, dessim.Build,
// workload.*), every answer checked against a brute-force oracle. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run ./bench                          every workload, end-to-end metrics
//	go run ./bench -workload tcp-mix        one workload
//	go run ./bench -trace 1                 the traced pass: per-layer metrics
//	go run ./bench -seed 7 -seconds 20
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 10

// watchdog ends a run that stalls (a stream that never terminates, an echo
// that never comes back) well inside the driver's per-run limit.
const watchdog = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four, one after the other)")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", defaultSeconds, "length of the measured phase")
		trace   = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics and span file")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// Two cores at most: two closed-loop clients, and numbers that compare
	// across machines with more.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []spec{w}
	}
	ok := true
	for _, w := range selected {
		timer := time.AfterFunc(watchdog, func() {
			fmt.Fprintf(os.Stderr, "bench: %s did not finish within %v\n", w.name, watchdog)
			os.Exit(3)
		})
		res, err := runWorkload(os.Stdout, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		timer.Stop()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runWorkload generates the workload's inputs, runs one pass and prints the
// report followed by the result line.
func runWorkload(out io.Writer, sp spec, seed int64, d time.Duration, traced bool) (*result, error) {
	in, err := generate(sp, seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "workload %s  seed %d  %d members  %d elements  %d distinct queries  GOMAXPROCS %d\n",
		sp.name, seed, sp.nodes, sp.elems, len(in.pool), runtime.GOMAXPROCS(0))
	var res *result
	if traced {
		res, err = reportTraced(out, in, d)
	} else {
		res, err = reportEndToEnd(out, in, d)
	}
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res, nil
}

// reportEndToEnd is the untraced pass: set up, measure, then set up again
// until setup_s is a median of setupRepeats. The extra set-ups come after
// the measured phase so that heap_live_mb sees one ring.
func reportEndToEnd(out io.Writer, in *inputs, d time.Duration) (*result, error) {
	r, drv, first, err := setup(in, false)
	if err != nil {
		return nil, err
	}
	m := measure(r, drv, d, false)
	r.close()
	setups := []float64{first.Seconds()}
	for i := 1; i < setupRepeats; i++ {
		r, _, took, err := setup(in, false)
		if err != nil {
			return nil, err
		}
		r.close()
		setups = append(setups, took.Seconds())
	}

	ops, queries := float64(m.ops), float64(m.trafficQ)
	vals := map[string]float64{
		"setup_s":              median(setups),
		"msgs_per_query":       float64(m.msgs) / queries,
		"wire_bytes_per_query": float64(m.bytes) / queries,
		"allocs_per_op":        float64(m.mallocs) / ops,
		"alloc_kb_per_op":      float64(m.allocBytes) / ops / 1024,
		"heap_live_mb":         float64(m.heapLive) / (1 << 20),
		"ok_share":             float64(m.ops-m.failed) / ops,
	}
	fmt.Fprintf(out, "measured %d rounds, %d ops (%d queries) in %.2fs; set-ups %.3fs\n",
		m.rounds, m.ops, m.queries, m.wall.Seconds(), setups)
	if m.firstErr != nil {
		fmt.Fprintf(out, "first failure: %v\n", m.firstErr)
	}
	// The timing cells are per-layer metrics (see the catalogue); this pass
	// measures them anyway, so print them for the reader.
	timing := m.timing()
	for _, def := range catalogue {
		if v, ok := timing[def.name]; ok {
			fmt.Fprintf(out, "%-18s %-36s %14.4f %s   (not bounded; -trace 1 reports it)\n", in.spec.name, def.name, v, def.unit)
		}
	}
	fmt.Fprintf(out, "latency samples: %d, of which %d beyond p99\n", len(m.lat), len(m.lat)/100)
	fmt.Fprintf(out, "machine: calibration loop %.2f ms, %.1f us CPU per op (a slow run with a slow loop is a slow machine)\n",
		median(m.calib), us(m.rusageCPU)/ops)
	res := &result{Correct: m.failed == 0, Attempted: m.ops, Failed: m.failed, Metrics: map[string]value{}}
	printMetrics(out, in.spec.name, vals, true, res)
	return res, nil
}

// reportTraced is the traced pass.
func reportTraced(out io.Writer, in *inputs, d time.Duration) (*result, error) {
	tr, err := tracedPass(in, d)
	if err != nil {
		return nil, err
	}
	if tr.firstErr != nil {
		fmt.Fprintf(out, "first failure: %v\n", tr.firstErr)
	}
	res := &result{Correct: tr.failed == 0, Attempted: tr.attempted, Failed: tr.failed, Metrics: map[string]value{}}
	printMetrics(out, in.spec.name, tr.metrics, false, res)
	fmt.Fprintf(out, "layer shares of %s = %.3f ms, median self time over %d sampled queries:\n",
		tr.denomName, ms(tr.denom), tr.samples)
	groups := map[string]float64{}
	for _, s := range tr.shares {
		fmt.Fprintf(out, "  %-18s %10.1f us  %6.1f%%\n", s.layer, us(s.p50), 100*s.share)
		groups[layerGroup(s.layer)] += s.share
	}
	names := make([]string, 0, len(groups))
	for g := range groups {
		names = append(names, g)
	}
	sort.Strings(names)
	for _, g := range names {
		fmt.Fprintf(out, "  group %-14s %6.1f%%\n", g, 100*groups[g])
	}
	fmt.Fprintf(out, "  unattributed       %6.1f%%\n", 100*tr.metrics["layers.unattributed_share"])
	fmt.Fprintf(out, "spans written to %s\n", tr.traceFile)
	return res, nil
}

// layerGroup folds replayed layers into the three groups the workloads are
// sized to separate.
func layerGroup(layer string) string {
	switch layer {
	case "keyspace.region", "sfc.refine", "store.scan":
		return "sfc+store" // keyspace rides with the kernels it feeds
	case "wire.codec", "transport.echo":
		return "wire+transport"
	case "engine.local", "engine.handlers", "dessim.core":
		return "engine+dessim"
	case "harness.meter":
		return "harness"
	}
	return "chord"
}

// printMetrics prints one line per catalogue metric of the pass and fills
// the result line.
func printMetrics(out io.Writer, workload string, vals map[string]float64, endToEnd bool, res *result) {
	for _, def := range catalogue {
		if def.endToEnd != endToEnd {
			continue
		}
		v := vals[def.name]
		if v == absent {
			fmt.Fprintf(out, "%-18s %-36s %14s %s\n", workload, def.name, "absent", def.unit)
			v = 0
		} else {
			fmt.Fprintf(out, "%-18s %-36s %14.4f %s\n", workload, def.name, v, def.unit)
		}
		res.Metrics[def.name] = value{Value: v, Unit: def.unit}
	}
}
