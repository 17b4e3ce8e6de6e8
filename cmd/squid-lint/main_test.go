package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTreeIsLintClean is the regression net for every fix and annotation
// squid-lint forced: the whole module must stay finding-free. It is the
// same invocation CI's squid-lint gate runs.
func TestTreeIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	var out, errOut strings.Builder
	if code := run([]string{"./..."}, &out, &errOut); code != 0 {
		t.Fatalf("squid-lint ./... exit %d\n%s%s", code, out.String(), errOut.String())
	}
}

func TestListAnalyzers(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exit %d: %s", code, errOut.String())
	}
	for _, name := range []string{
		"ringcmp", "scratchalias", "nondet", "rpcerr",
		"confine", "lockcheck", "allocfree",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %s:\n%s", name, out.String())
		}
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-only", "nosuch"}, &out, &errOut); code != 2 {
		t.Fatalf("-only nosuch exit %d, want 2", code)
	}
}

// TestSingleAnalyzerOnCleanPackage exercises -only over one package — the
// cheap smoke path.
func TestSingleAnalyzerOnCleanPackage(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-only", "ringcmp", "./internal/stats"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errOut.String())
	}
}

// TestTimingFlag runs the analyzers individually and reports per-analyzer
// wall time; findings and exit code must match the merged run.
func TestTimingFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-time", "-only", "ringcmp", "./internal/stats"}, &out, &errOut); code != 0 {
		t.Fatalf("-time exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(errOut.String(), "ringcmp") {
		t.Errorf("-time stderr missing per-analyzer line:\n%s", errOut.String())
	}
}

// writeModule lays out a throwaway module and chdirs into it, so run()
// resolves it as the module under analysis.
func writeModule(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
}

// TestFindingsExitOne seeds a lockcheck violation in a scratch module and
// checks the driver reports it with exit code 1.
func TestFindingsExitOne(t *testing.T) {
	writeModule(t, map[string]string{
		"go.mod": "module tmp\n\ngo 1.22\n",
		"a.go": `package a

import "sync"

type S struct {
	mu sync.Mutex
	n  int //lint:guarded-by mu
}

func Bad(s *S) int { return s.n }
`,
	})
	var out, errOut strings.Builder
	code := run([]string{"./..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "without holding mu") {
		t.Errorf("missing lockcheck finding:\n%s", out.String())
	}
}

// TestAllowsAuditClean runs the escape audit over this repository: every
// committed //lint:allow-<analyzer> must name a live analyzer and carry a
// reason.
func TestAllowsAuditClean(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-allows"}, &out, &errOut); code != 0 {
		t.Fatalf("-allows exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "allow-") {
		t.Errorf("-allows listed no escapes (expected the repo's committed allows):\n%s", out.String())
	}
}

// TestAllowsAuditStale fails the audit on an escape naming a dead
// analyzer and on one missing its reason.
func TestAllowsAuditStale(t *testing.T) {
	writeModule(t, map[string]string{
		"go.mod": "module tmp\n\ngo 1.22\n",
		"a.go": `package a

//lint:allow-nosuchanalyzer suppressing a ghost
var A = 1

//lint:allow-ringcmp
var B = 2
`,
	})
	var out, errOut strings.Builder
	code := run([]string{"-allows"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("-allows exit %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(errOut.String(), "no analyzer by that name") {
		t.Errorf("stale escape not reported:\n%s", errOut.String())
	}
	if !strings.Contains(errOut.String(), "missing reason") {
		t.Errorf("reasonless escape not reported:\n%s", errOut.String())
	}
}

// TestAllocsGateFailsOnEscape plants a heap allocation inside a
// //lint:allocfree function and checks the escape gate (which shells out
// to go build -gcflags=-m) catches it.
func TestAllocsGateFailsOnEscape(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the compiler")
	}
	writeModule(t, map[string]string{
		"go.mod": "module tmp\n\ngo 1.22\n",
		"a.go": `package a

//lint:allocfree
func Hot(n int) []int {
	return make([]int, n)
}
`,
	})
	var out, errOut strings.Builder
	code := run([]string{"-allocs", "./..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("-allocs exit %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "escapes to heap") {
		t.Errorf("missing escape diagnostic:\n%s", out.String())
	}
}

// TestAllocsGateCleanModule checks exit 0 and the clean summary when every
// annotated function passes escape analysis.
func TestAllocsGateCleanModule(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the compiler")
	}
	writeModule(t, map[string]string{
		"go.mod": "module tmp\n\ngo 1.22\n",
		"a.go": `package a

var sink [8]byte

//lint:allocfree
func Hot(b byte) {
	sink[0] = b
}
`,
	})
	var out, errOut strings.Builder
	if code := run([]string{"-allocs", "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("-allocs exit %d, want 0\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(errOut.String(), "escape gate clean") {
		t.Errorf("missing clean summary:\n%s", errOut.String())
	}
}
