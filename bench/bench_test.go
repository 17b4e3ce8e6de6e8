package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The smoke and schema test: every workload at 1/100 scale, both passes,
// held against BENCHMARK.json.

const (
	smokeScale   = 0.01
	smokeMeasure = 50 * time.Millisecond
	childEnv     = "BENCH_SMOKE_CHILD" // "<workload> <seed> <trace>": run that pass and print its result line
)

// TestMain lets the test binary stand in for the benchmark process: a child
// started with childEnv set runs one scaled pass and exits. Same-seed
// determinism is a property of two processes, not of two runs in one (query
// identifiers count up process-wide, and their varint width is on the wire).
func TestMain(m *testing.M) {
	if arg := os.Getenv(childEnv); arg != "" {
		f := strings.Fields(arg)
		seed, _ := strconv.ParseInt(f[1], 10, 64)
		sp, _ := workloadByName(f[0])
		traceDir = os.TempDir()
		if _, err := runWorkload(os.Stdout, sp.scaled(smokeScale), seed, smokeMeasure, f[2] == "1"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSchema holds the program's catalogue and workload list equal to
// BENCHMARK.json, and BENCHMARK.json to the driver's limits.
func TestSchema(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q breaks the name or why limits", w.Name)
		}
	}
	var listed []benchmarkMetric
	listed = append(listed, bf.EndToEnd...)
	listed = append(listed, bf.PerLayer...)
	if len(listed) != len(catalogue) {
		t.Fatalf("%d metrics in BENCHMARK.json, %d in the catalogue", len(listed), len(catalogue))
	}
	seen := map[string]bool{}
	setup := false
	for i, m := range listed {
		def := catalogue[i]
		endToEnd := i < len(bf.EndToEnd)
		if m.Name != def.name || m.Unit != def.unit || endToEnd != def.endToEnd {
			t.Errorf("metric %d: BENCHMARK.json has %s [%s], the catalogue %s [%s]", i, m.Name, m.Unit, def.name, def.unit)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q [%s] breaks the name or unit limits, or repeats", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Better != def.better {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
		if endToEnd != (m.Bound != nil) {
			t.Errorf("metric %q: only end-to-end metrics carry a bound", m.Name)
		}
		if m.Bound != nil && (*m.Bound < 0 || *m.Bound > 0.25) {
			t.Errorf("metric %q: bound %v outside [0, 0.25]", m.Name, *m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && endToEnd {
			setup = true
		}
	}
	if !setup {
		t.Error("no end-to-end setup_s [s, lower]")
	}
}

// checkResult holds one pass's result line against the catalogue.
func checkResult(t *testing.T, res *result, endToEnd bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	want := 0
	for _, def := range catalogue {
		if def.endToEnd != endToEnd {
			continue
		}
		want++
		v, ok := res.Metrics[def.name]
		if !ok {
			t.Errorf("metric %s not emitted", def.name)
			continue
		}
		if v.Unit != def.unit {
			t.Errorf("metric %s: unit %q, declared %q", def.name, v.Unit, def.unit)
		}
		if endToEnd && !(v.Value > 0) {
			t.Errorf("end-to-end metric %s = %v, must never be 0", def.name, v.Value)
		}
	}
	if len(res.Metrics) != want {
		t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), want)
	}
	if endToEnd && res.Metrics["ok_share"].Value != 1 {
		t.Errorf("ok_share = %v", res.Metrics["ok_share"].Value)
	}
}

// TestSmoke runs every workload at 1/100 scale: the end-to-end pass on two
// seeds and the traced pass.
func TestSmoke(t *testing.T) {
	traceDir = t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, seed := range []int64{1, 2} {
				var out bytes.Buffer
				res, err := runWorkload(&out, w.scaled(smokeScale), seed, smokeMeasure, false)
				if err != nil {
					t.Fatalf("seed %d: %v\n%s", seed, err, out.String())
				}
				checkResult(t, res, true)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Errorf("last line is not the result object: %v", err)
				}
			}
			var out bytes.Buffer
			res, err := runWorkload(&out, w.scaled(smokeScale), 1, smokeMeasure, true)
			if err != nil {
				t.Fatalf("traced: %v\n%s", err, out.String())
			}
			checkResult(t, res, false)
			if _, err := os.Stat(traceDir + "/" + w.name + ".trace.json"); err != nil {
				t.Errorf("no span file: %v", err)
			}
			for _, name := range []string{"layers.unattributed_share", "telemetry.trace_overhead_share"} {
				if !strings.Contains(out.String(), name) {
					t.Errorf("%s not printed", name)
				}
			}
		})
	}
}

// child runs one scaled pass in a fresh process and returns its result.
func child(t *testing.T, workload string, seed int64, trace int) result {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s %d %d", childEnv, workload, seed, trace))
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("child %s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("child %s: %v", workload, err)
	}
	return res
}

// TestDESRepeatsExactly: two same-seed des-wan-mix processes agree to the
// last digit on everything counted or measured in virtual time.
func TestDESRepeatsExactly(t *testing.T) {
	for trace, names := range [][]string{
		{"msgs_per_query", "wire_bytes_per_query"},
		{"query_p50_ms", "query_p99_ms", "first_match_p50_ms", "dessim.events_per_query"},
	} {
		a, b := child(t, "des-wan-mix", 1, trace), child(t, "des-wan-mix", 1, trace)
		for _, name := range names {
			if a.Metrics[name].Value != b.Metrics[name].Value || a.Metrics[name].Value == 0 {
				t.Errorf("%s: %v then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
	}
}
