// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against want-comments, in the style of
// golang.org/x/tools/go/analysis/analysistest but built on the in-repo
// loader (no external dependencies).
//
// Fixtures live under <testdata>/src/<importpath>/. A fixture file marks
// an expected diagnostic with a trailing comment on the offending line:
//
//	a < b // want `ring identifier`
//
// The backquoted (or double-quoted) string is a regexp matched against the
// diagnostic message; several per line are allowed. Lines without a want
// comment must produce no diagnostic. Fixture packages may import real
// module packages ("squid/internal/chord"), or fixture twins of them under
// the same testdata/src ("chord") — the loader grafts the fixture tree into
// the module's import space. A twin declares only what its fixtures use,
// so a fixture type-checks without the real package and the standard
// library below it; it stands in for the real one wherever an analyzer
// matches a package by the last element of its path.
package analysistest

import (
	"fmt"
	"go/build"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"squid/internal/analysis"
)

// Run loads each fixture package under testdata/src, applies a, and
// reports mismatches between diagnostics and want comments via t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	testdata, err := filepath.Abs(testdata)
	if err != nil {
		t.Fatal(err)
	}
	moduleRoot, err := analysis.FindModuleRoot(testdata)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := analysis.NewLoader(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(testdata, "src")
	if err := graftFixtures(loader, src); err != nil {
		t.Fatal(err)
	}

	var pkgs []*analysis.Package
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	diags, err := analysis.Run([]*analysis.Analyzer{a}, pkgs)
	if err != nil {
		t.Fatal(err)
	}

	wants, err := collectWants(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if !consumeWant(wants, d) {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
		}
	}
	for key, res := range wants {
		for _, w := range res {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", key.file, key.line, w.re.String())
			}
		}
	}
}

// graftFixtures maps every package directory under src into the loader's
// import space, keyed by its path relative to src.
func graftFixtures(l *analysis.Loader, src string) error {
	return filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if bp, err := build.Default.ImportDir(p, 0); err != nil || len(bp.GoFiles) == 0 {
			return nil
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		l.ExtraDirs[filepath.ToSlash(rel)] = p
		return nil
	})
}

type wantKey struct {
	file string
	line int
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

// wantRE matches one expectation inside a want comment: a backquoted or
// double-quoted regexp.
var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// collectWants scans fixture comments for want markers.
func collectWants(pkgs []*analysis.Package) (map[wantKey][]*want, error) {
	wants := make(map[wantKey][]*want)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, ok := strings.CutPrefix(text, "want ")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, q := range wantRE.FindAllString(rest, -1) {
						expr := q[1 : len(q)-1]
						if q[0] == '"' {
							expr = strings.ReplaceAll(expr, `\"`, `"`)
						}
						re, err := regexp.Compile(expr)
						if err != nil {
							return nil, fmt.Errorf("%s: bad want regexp %s: %w", pos, q, err)
						}
						key := wantKey{pos.Filename, pos.Line}
						wants[key] = append(wants[key], &want{re: re})
					}
				}
			}
		}
	}
	return wants, nil
}

// consumeWant marks the first unmatched want on d's line whose regexp
// matches d's message.
func consumeWant(wants map[wantKey][]*want, d analysis.Diagnostic) bool {
	for _, w := range wants[wantKey{d.Pos.Filename, d.Pos.Line}] {
		if !w.matched && w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}
