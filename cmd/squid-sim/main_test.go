package main

import (
	"math/rand"
	"strings"
	"testing"
)

func TestSessionExec(t *testing.T) {
	s := &session{backend: "goroutine", rng: rand.New(rand.NewSource(1))}
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

// TestSessionExecDES drives the same command set through the discrete-event
// backend: every REPL command must work identically, and the scale command
// must run its planet-scale storm.
func TestSessionExecDES(t *testing.T) {
	s := &session{backend: "des", rng: rand.New(rand.NewSource(1))}
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
