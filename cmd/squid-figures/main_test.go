package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/small.golden from the current output")

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(io.Discard, io.Discard, "nope", 0.01, 10, 100, ""); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestRunSingleFigureTiny(t *testing.T) {
	if err := run(io.Discard, io.Discard, "fig18", 0.01, 10, 2000, ""); err != nil {
		t.Errorf("fig18: %v", err)
	}
	if err := run(io.Discard, io.Discard, "a1", 0.01, 30, 2000, ""); err != nil {
		t.Errorf("a1: %v", err)
	}
}

func TestRunCSVExport(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/out.csv"
	if err := run(io.Discard, io.Discard, "fig11", 0.002, 10, 500, path); err != nil {
		t.Fatalf("fig11 with csv: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.HasPrefix(s, "figure,nodes,keys,query") {
		t.Errorf("csv header missing:\n%s", s[:80])
	}
	if !strings.Contains(s, "fig11,") {
		t.Errorf("csv rows missing")
	}
}

// TestFiguresGolden holds every figure's small-config output byte for byte.
// The figures run on the event core, so the output is a function of the
// flags; a changed digit is a changed result. Regenerate after an
// intended change with
//
//	go test ./cmd/squid-figures -run TestFiguresGolden -update
//
// Most of its ~4.5 s is A2's central enumeration, so it skips under -race.
func TestFiguresGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("figure golden skipped under -race")
	}
	var out bytes.Buffer
	if err := run(&out, io.Discard, "all", 0.002, 60, 4000, ""); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "small.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, %s has %d", len(gl), path, len(wl))
	}
}
