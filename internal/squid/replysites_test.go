package squid_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// replyKinds are the messages that end a subtree or answer a query: a
// literal of one builds a reply.
var replyKinds = []string{"SubResultMsg", "ClientResultMsg", "QueryShedMsg"}

// earlyReturnFuncs are the functions whose early returns end a subtree, or
// give up on a child, without a reply of their own: the subtree's finish
// and the receiver's entry, and the recovery paths.
var earlyReturnFuncs = []string{"finishSubtree", "handleClusterQuery", "childExpired", "handleShed", "cancelQuery"}

// TestReplySitesClassified holds DESIGN.md's reply-site table (§4c) to the
// package's syntax tree, as TestAPISurface holds the exported surface:
// every literal of a reply kind and every early return of the listed
// functions in non-test code has exactly one row, saying whether the site
// is exact or sets Incomplete, and every row names a site that exists. A
// reply site added without a row fails here, so no path can return a short
// answer unclassified. Empty literals (codec prototypes) build no reply.
func TestReplySitesClassified(t *testing.T) {
	got := replySites(t)
	want := designReplyRows(t)
	for _, s := range got {
		if i := slices.Index(want, s); i >= 0 {
			want = slices.Delete(want, i, i+1)
			continue
		}
		t.Errorf("reply site without a row in DESIGN.md §4c: | `%s` | `%s` | … |", s[0], s[1])
	}
	for _, s := range want {
		t.Errorf("DESIGN.md §4c lists a reply site the code no longer has: %s · %s", s[0], s[1])
	}
	if len(got) == 0 {
		t.Fatal("no reply site found: the scan is broken")
	}
}

// replySites scans the package's non-test files for reply sites, each as
// (function, site): a literal renders as Kind{Field, …} with its keyed
// fields in source order, an early return as "return if <condition>".
func replySites(t *testing.T) [][2]string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	render := func(n ast.Node) string {
		var b strings.Builder
		if err := printer.Fprint(&b, fset, n); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	var sites [][2]string
	for _, f := range pkgs["squid"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := fn.Name.Name
			var ifs []*ast.IfStmt
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IfStmt:
					// Walk the branches with this if on the stack, so a return
					// inside names its condition; a literal in the condition
					// itself belongs to the enclosing scope.
					if n.Init != nil {
						ast.Inspect(n.Init, visit)
					}
					ast.Inspect(n.Cond, visit)
					ifs = append(ifs, n)
					ast.Inspect(n.Body, visit)
					ifs = ifs[:len(ifs)-1]
					if n.Else != nil {
						ast.Inspect(n.Else, visit)
					}
					return false
				case *ast.CompositeLit:
					id, ok := n.Type.(*ast.Ident)
					if !ok || !slices.Contains(replyKinds, id.Name) || len(n.Elts) == 0 {
						return true
					}
					var fields []string
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							fields = append(fields, render(kv.Key))
						}
					}
					sites = append(sites, [2]string{name, id.Name + "{" + strings.Join(fields, ", ") + "}"})
				case *ast.ReturnStmt:
					if !slices.Contains(earlyReturnFuncs, name) {
						return true
					}
					site := "return"
					if len(ifs) > 0 {
						cond := ifs[len(ifs)-1]
						site += " if " + render(cond.Cond)
						if cond.Init != nil {
							site = "return if " + render(cond.Init) + "; " + render(cond.Cond)
						}
					}
					sites = append(sites, [2]string{name, site})
				}
				return true
			}
			ast.Inspect(fn.Body, visit)
		}
	}
	return sites
}

// designReplyRows reads the (function, site) cells of DESIGN.md's
// reply-site table and checks each row's class.
func designReplyRows(t *testing.T) [][2]string {
	t.Helper()
	f, err := os.Open("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const header = "| function | site | class | why |"
	var rows [][2]string
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == header:
			in = true
		case !in || strings.HasPrefix(line, "|---"):
		case !strings.HasPrefix(line, "|"):
			return rows
		default:
			// A cell writes a | of its code as \|.
			cells := strings.Split(strings.ReplaceAll(strings.Trim(line, "|"), `\|`, "\x00"), "|")
			if len(cells) != 4 {
				t.Fatalf("DESIGN.md reply-site row has %d cells: %s", len(cells), line)
			}
			unquote := func(s string) string {
				return strings.ReplaceAll(strings.Trim(strings.TrimSpace(s), "`"), "\x00", "|")
			}
			if class := strings.TrimSpace(cells[2]); class != "exact" && class != "sets Incomplete" {
				t.Errorf("DESIGN.md reply-site row classed %q, want exact or sets Incomplete: %s", class, line)
			}
			rows = append(rows, [2]string{unquote(cells[0]), unquote(cells[1])})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !in {
		t.Fatalf("DESIGN.md has no reply-site table (header %q)", header)
	}
	return rows
}
