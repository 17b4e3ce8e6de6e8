package main

import (
	"io"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// TestSessionExec drives the core REPL commands through one session:
// commands before build fail, the command set runs, and malformed commands
// fail cleanly.
func TestSessionExec(t *testing.T) {
	s := &session{rng: rand.New(rand.NewSource(1))}
	// Commands before build must fail (except build/help).
	if err := s.exec("query (a, *)"); err == nil {
		t.Error("query before build should fail")
	}
	if err := s.exec("help"); err != nil {
		t.Error("help should always work")
	}
	steps := []string{
		"build 20",
		"load 1000",
		"publish alpha,beta demo-doc",
		"query (alpha, *)",
		"keywords alpha",
		"join",
		"stabilize 2",
		"kill 3",
		"stabilize 4",
		"verify",
		"loads",
		"peers",
		"balance 2",
		"crash 2",
		"restart 2",
		"faults 0",
		"stats",
	}
	for _, cmd := range steps {
		if err := s.exec(cmd); err != nil {
			t.Fatalf("%q: %v", cmd, err)
		}
	}
	for _, bad := range []string{
		"build", "load", "load x", "publish", "query", "keywords",
		"leave", "leave 999", "kill abc", "nonsense",
		"faults", "faults 2", "crash", "crash 99", "restart -1",
		"scale", "scale 1",
	} {
		if err := s.exec(bad); err == nil {
			t.Errorf("%q should fail", bad)
		}
	}
	if !strings.Contains(helpText, "query") || !strings.Contains(helpText, "scale") {
		t.Error("help text incomplete")
	}
}

// TestSessionExecDES drives the full command set, check and trace included,
// through one event-core session, and the scale command must run its
// planet-scale storm.
func TestSessionExecDES(t *testing.T) {
	s := &session{rng: rand.New(rand.NewSource(1))}
	steps := []string{
		"build 20",
		"load 1000",
		"publish alpha,beta demo-doc",
		"query (alpha, *)",
		"keywords alpha",
		"join",
		"stabilize 2",
		"kill 3",
		"stabilize 4",
		"verify",
		"loads",
		"peers",
		"balance 2",
		"check",
		"crash 2",
		"restart 2",
		"faults 0",
		"stats",
		"trace",
		"scale 300 50",
	}
	for _, cmd := range steps {
		if err := s.exec(cmd); err != nil {
			t.Fatalf("%q: %v", cmd, err)
		}
	}
}

// TestSessionKeywords: a publish with more values than the space has
// dimensions stores every sorted combination of them, and a keyword search
// finds the document once, whichever axis its word landed on.
func TestSessionKeywords(t *testing.T) {
	s := &session{rng: rand.New(rand.NewSource(1))}
	for _, cmd := range []string{"build 20", "publish gamma,alpha,beta doc"} {
		if err := s.exec(cmd); err != nil {
			t.Fatalf("%q: %v", cmd, err)
		}
	}
	out := captureStdout(t, func() {
		if err := s.exec("keywords beta"); err != nil {
			t.Fatalf("keywords beta: %v", err)
		}
	})
	if !strings.HasPrefix(out, "1 matches\n") {
		t.Errorf("keywords beta printed %q, want 1 match", out)
	}
}

// captureStdout returns what fn prints to standard output.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	done := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r) // ends when w closes; a read error only shortens the output
		done <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	defer func() {
		os.Stdout = stdout
		w.Close() // a second close after the normal path is a no-op error
	}()
	fn()
	os.Stdout = stdout
	w.Close()
	return <-done
}
