package squid_test

import (
	"go/ast"
	"go/types"
	"reflect"
	"testing"

	"squid/internal/wire"
)

// TestNoValueFormOfPointerMessages keeps every type switch and type
// assertion in the module's non-test packages on the form a message
// actually travels in. A kind whose codec is registered for *T is only
// ever sent as *T, so a `case T` or `.(T)` still compiles but never
// matches: an observer written that way silently counts nothing. The
// check loads the module with the same stdlib-only loader squid-lint uses
// (shared with TestAPISurface).
func TestNoValueFormOfPointerMessages(t *testing.T) {
	valueForms := map[string]bool{} // "pkgpath.Name" of each pointer-sent kind
	for _, c := range wire.Codecs() {
		if protocolCodec(c) && c.Type.Kind() == reflect.Pointer {
			valueForms[c.Type.Elem().PkgPath()+"."+c.Type.Elem().Name()] = true
		}
	}
	if len(valueForms) == 0 {
		t.Fatal("no codec is registered for a pointer type")
	}

	loader := moduleLoader(t)
	paths, err := loader.ExpandPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		check := func(e ast.Expr) {
			named, ok := types.Unalias(pkg.Info.TypeOf(e)).(*types.Named)
			if !ok || named.Obj().Pkg() == nil {
				return
			}
			if name := named.Obj().Pkg().Path() + "." + named.Obj().Name(); valueForms[name] {
				t.Errorf("%s: matches the value form of %s, which travels only as *%s", pkg.Fset.Position(e.Pos()), name, named.Obj().Name())
			}
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeAssertExpr:
					if n.Type != nil {
						check(n.Type)
					}
				case *ast.TypeSwitchStmt:
					for _, cc := range n.Body.List {
						for _, e := range cc.(*ast.CaseClause).List {
							check(e)
						}
					}
				}
				return true
			})
		}
	}
}
