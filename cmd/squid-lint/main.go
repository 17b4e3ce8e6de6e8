// Command squid-lint runs the squid analyzer suite — the machine-checked
// correctness invariants of this codebase — over the given packages.
//
// Usage:
//
//	go run ./cmd/squid-lint [-tests] [-list] [-time] [-only name] [packages ...]
//	go run ./cmd/squid-lint -allocs [packages ...]
//	go run ./cmd/squid-lint -allows
//
// Packages default to ./... (every package in the module). Patterns may be
// module-relative directories (./internal/sfc) or import paths
// (squid/internal/sfc). The exit status is 1 when any finding is reported,
// 2 on usage or load errors, 0 on a clean tree.
//
// The suite (see internal/analysis and DESIGN.md §4e/§4j):
//
//	ringcmp       relational operators on ring identifier types
//	scratchalias  retained/clobbered slices from the sfc ...Into APIs
//	nondet        wall clock / global rand in determinism-critical packages
//	rpcerr        silently dropped errors on the transport/chord RPC path
//	confine       //lint:confine fields touched off their owning goroutine
//	lockcheck     //lint:guarded-by fields touched without the mutex held
//	allocfree     allocation constructs on //lint:allocfree hot paths
//
// -allocs runs the escape-analysis gate instead: every //lint:allocfree
// function is checked against `go build -gcflags=-m` output, so a heap
// escape that the static analyzer cannot see (compiler-decided) still
// fails the build. -allows audits every //lint:allow-<analyzer> escape in
// the module, failing on escapes whose analyzer no longer exists or whose
// reason is missing. -time prints per-analyzer wall time to stderr so the
// suite's cost stays visible in CI logs.
//
// Deliberate exceptions are annotated //lint:allow-<analyzer> <reason>.
package main

import (
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"squid/internal/analysis"
	"squid/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("squid-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tests := fs.Bool("tests", false, "also analyze in-package _test.go files")
	list := fs.Bool("list", false, "list the analyzers in the suite and exit")
	only := fs.String("only", "", "run only the named analyzer (e.g. ringcmp)")
	timing := fs.Bool("time", false, "print per-analyzer wall time to stderr")
	allocs := fs.Bool("allocs", false, "check //lint:allocfree functions against go build -gcflags=-m escape analysis")
	allows := fs.Bool("allows", false, "audit every //lint:allow-<analyzer> escape in the module")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := suite.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintf(stderr, "squid-lint: %v\n", err)
		return 2
	}
	if *allows {
		return auditAllows(root, analyzers, stdout, stderr)
	}

	if *only != "" {
		var picked []*analysis.Analyzer
		for _, a := range analyzers {
			if a.Name == *only {
				picked = append(picked, a)
			}
		}
		if len(picked) == 0 {
			fmt.Fprintf(stderr, "squid-lint: unknown analyzer %q\n", *only)
			return 2
		}
		analyzers = picked
	}

	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintf(stderr, "squid-lint: %v\n", err)
		return 2
	}
	loader.IncludeTests = *tests

	paths, err := loader.ExpandPatterns(fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "squid-lint: %v\n", err)
		return 2
	}
	var pkgs []*analysis.Package
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fmt.Fprintf(stderr, "squid-lint: %v\n", err)
			return 2
		}
		pkgs = append(pkgs, pkg)
	}

	if *allocs {
		return escapeGate(root, pkgs, stdout, stderr)
	}

	var diags []analysis.Diagnostic
	if *timing {
		for _, a := range analyzers {
			start := time.Now()
			part, err := analysis.Run([]*analysis.Analyzer{a}, pkgs)
			if err != nil {
				fmt.Fprintf(stderr, "squid-lint: %v\n", err)
				return 2
			}
			fmt.Fprintf(stderr, "squid-lint: %-14s %8.1fms  %d finding(s)\n",
				a.Name, float64(time.Since(start).Microseconds())/1000, len(part))
			diags = append(diags, part...)
		}
		analysis.SortDiagnostics(diags)
	} else {
		diags, err = analysis.Run(analyzers, pkgs)
		if err != nil {
			fmt.Fprintf(stderr, "squid-lint: %v\n", err)
			return 2
		}
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "squid-lint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}

// escapeGate verifies //lint:allocfree functions against the compiler's
// escape analysis: one `go build -gcflags=-m` per package that declares
// annotated functions, diagnostics mapped back onto the function spans.
func escapeGate(root string, pkgs []*analysis.Package, stdout, stderr io.Writer) int {
	var diags []analysis.Diagnostic
	checked := 0
	for _, pkg := range pkgs {
		spans := analysis.CollectAllocSpans(pkg, root)
		if len(spans) == 0 {
			continue
		}
		checked++
		cmd := exec.Command("go", "build", "-gcflags=-m", pkg.Path)
		cmd.Dir = root
		out, err := cmd.CombinedOutput()
		if err != nil {
			fmt.Fprintf(stderr, "squid-lint: go build -gcflags=-m %s: %v\n%s", pkg.Path, err, out)
			return 2
		}
		diags = append(diags, analysis.EscapeDiagnostics(pkg, root, out)...)
	}
	analysis.SortDiagnostics(diags)
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "squid-lint: %d escape(s) on //lint:allocfree paths in %d package(s)\n", len(diags), checked)
		return 1
	}
	fmt.Fprintf(stderr, "squid-lint: allocfree escape gate clean (%d package(s) with annotations)\n", checked)
	return 0
}

// auditAllows lists every //lint:allow-<analyzer> escape in the module
// with its location and reason, and fails when an escape names an
// analyzer that no longer exists (a stale suppression hides nothing —
// except its own rot) or carries no reason. Files are parsed, not
// text-scanned, so only genuine directive comments count — prose that
// quotes the //lint:allow- form (docs, analyzer messages) does not.
func auditAllows(root string, analyzers []*analysis.Analyzer, stdout, stderr io.Writer) int {
	known := make(map[string]bool)
	for _, a := range analyzers {
		known[a.Name] = true
	}
	bad := 0
	count := 0
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			rel = p
		}
		for _, group := range f.Comments {
			for _, dir := range analysis.GroupDirectives(group) {
				aname, ok := strings.CutPrefix(dir.Name, "allow-")
				if !ok {
					continue
				}
				reason := strings.TrimSpace(dir.Args)
				line := fset.Position(dir.Pos).Line
				count++
				switch {
				case !known[aname]:
					fmt.Fprintf(stderr, "%s:%d: allow-%s: no analyzer by that name (stale escape)\n", rel, line, aname)
					bad++
				case reason == "":
					fmt.Fprintf(stderr, "%s:%d: allow-%s: missing reason\n", rel, line, aname)
					bad++
				default:
					fmt.Fprintf(stdout, "%s:%d: allow-%s: %s\n", rel, line, aname, reason)
				}
			}
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(stderr, "squid-lint: %v\n", err)
		return 2
	}
	fmt.Fprintf(stderr, "squid-lint: %d allow escape(s) audited, %d invalid\n", count, bad)
	if bad > 0 {
		return 1
	}
	return 0
}
