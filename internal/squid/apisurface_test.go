package squid_test

import (
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"squid/internal/analysis"
)

// TestAPISurface pins the exported surface of package squid to a golden
// snapshot, in the spirit of squid-lint: an API change must show up as an
// explicit diff in review, never as an accident. The snapshot is rendered
// from the type-checked package (same stdlib-only loader squid-lint uses),
// so renames, signature changes, added/removed methods, and exported-field
// changes all fail this test until the golden is regenerated with
//
//	SQUID_UPDATE_API=1 go test -run TestAPISurface ./internal/squid
func TestAPISurface(t *testing.T) {
	pkg, err := moduleLoader(t).Load("squid/internal/squid")
	if err != nil {
		t.Fatal(err)
	}

	got := renderSurface(pkg.Types)
	golden := filepath.Join("testdata", "api_surface.golden")

	if os.Getenv("SQUID_UPDATE_API") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d lines)", golden, strings.Count(got, "\n"))
		return
	}

	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with SQUID_UPDATE_API=1): %v", err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(want, "\n")
	gotSet := toSet(gotLines)
	wantSet := toSet(wantLines)
	for _, l := range wantLines {
		if l != "" && !gotSet[l] {
			t.Errorf("removed: %s", l)
		}
	}
	for _, l := range gotLines {
		if l != "" && !wantSet[l] {
			t.Errorf("added:   %s", l)
		}
	}
	t.Error("exported API surface changed; if intended, regenerate with SQUID_UPDATE_API=1 go test -run TestAPISurface ./internal/squid")
}

var (
	loaderOnce   sync.Once
	sharedLoader *analysis.Loader
	loaderErr    error
)

// moduleLoader returns one loader for the module, shared by the tests that
// type-check it, so the standard library is checked from source once.
func moduleLoader(t *testing.T) *analysis.Loader {
	loaderOnce.Do(func() {
		var root string
		if root, loaderErr = analysis.FindModuleRoot("."); loaderErr == nil {
			sharedLoader, loaderErr = analysis.NewLoader(root)
		}
	})
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return sharedLoader
}

func toSet(lines []string) map[string]bool {
	s := make(map[string]bool, len(lines))
	for _, l := range lines {
		s[l] = true
	}
	return s
}

// renderSurface writes one line per exported package-level identifier, plus
// indented lines for exported struct fields and exported methods (value and
// pointer receivers). Output is sorted and package-qualified relative to
// squid, so it is deterministic across runs and Go versions that agree on
// type rendering.
func renderSurface(pkg *types.Package) string {
	qual := types.RelativeTo(pkg)
	scope := pkg.Scope()
	names := scope.Names()
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch o := obj.(type) {
		case *types.Const:
			fmt.Fprintf(&b, "const %s %s\n", name, types.TypeString(o.Type(), qual))
		case *types.Var:
			fmt.Fprintf(&b, "var %s %s\n", name, types.TypeString(o.Type(), qual))
		case *types.Func:
			fmt.Fprintf(&b, "func %s %s\n", name, types.TypeString(o.Type(), qual))
		case *types.TypeName:
			if o.IsAlias() {
				fmt.Fprintf(&b, "type %s = %s\n", name, types.TypeString(o.Type(), qual))
				continue
			}
			named := o.Type().(*types.Named)
			under := named.Underlying()
			fmt.Fprintf(&b, "type %s %s\n", name, underlyingKind(under))
			if st, ok := under.(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					if f.Exported() {
						fmt.Fprintf(&b, "\tfield %s %s\n", f.Name(), types.TypeString(f.Type(), qual))
					}
				}
			}
			mset := types.NewMethodSet(types.NewPointer(named))
			for i := 0; i < mset.Len(); i++ {
				m := mset.At(i).Obj()
				if m.Exported() {
					fmt.Fprintf(&b, "\tmethod %s %s\n", m.Name(), types.TypeString(m.Type(), qual))
				}
			}
		}
	}
	return b.String()
}

// underlyingKind names a type's underlying shape without expanding it, so
// the golden tracks the exported contract (fields, methods) rather than
// unexported representation details.
func underlyingKind(t types.Type) string {
	switch u := t.(type) {
	case *types.Struct:
		return "struct"
	case *types.Interface:
		return "interface"
	case *types.Basic:
		return u.Name()
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	case *types.Signature:
		return "func"
	case *types.Pointer:
		return "pointer"
	case *types.Chan:
		return "chan"
	default:
		return t.String()
	}
}
