package analysis

import (
	"go/types"
	"os"
	"path/filepath"
	"testing"
)

// loadSource type-checks one synthetic package and returns a pass over it.
func loadSource(t *testing.T, src string) *Pass {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module tmp\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load("tmp")
	if err != nil {
		t.Fatal(err)
	}
	return &Pass{
		Analyzer: &Analyzer{Name: "test"},
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		Dep:      pkg.Dep,
	}
}

const graphSrc = `package tmp

type runner interface{ Run() }

type job struct{}

func (job) Run() { helper() }

func helper() {}

func spawn(f func()) { f() }

func root() {
	go worker()
	go func() { helper() }()
	step := func() {}
	step()
	var again func(int)
	again = func(n int) {
		if n > 0 {
			again(n - 1)
		}
	}
	again(2)
	spawn(func() { helper() })
	defer func() { helper() }()
	var r runner = job{}
	r.Run()
}

func worker() {}
`

func TestCallGraph(t *testing.T) {
	pass := loadSource(t, graphSrc)
	g := BuildCallGraph(pass)

	find := func(name string) *FuncNode {
		t.Helper()
		for _, n := range g.Nodes {
			if n.Obj != nil && n.Obj.Name() == name {
				return n
			}
		}
		t.Fatalf("no node for %s", name)
		return nil
	}
	root := find("root")
	worker := find("worker")
	helper := find("helper")

	// go worker() marks the declared callee as goroutine-launched and the
	// edge as KindGo.
	if !worker.LaunchedByGo {
		t.Errorf("worker not marked LaunchedByGo")
	}
	var goEdges, litCalls, dynamic, deferredLits int
	for _, e := range root.Out {
		switch {
		case e.Kind == KindGo:
			goEdges++
		case e.Kind == KindCall && e.Callee != nil && e.Callee.Lit != nil:
			litCalls++
		case e.Kind == KindDynamic:
			dynamic++
		}
		if e.Deferred && e.Callee != nil && e.Callee.Lit != nil {
			deferredLits++
		}
	}
	if goEdges != 2 {
		t.Errorf("got %d KindGo edges from root, want 2", goEdges)
	}
	// step() + again(2): calls through local bindings resolve to literals.
	if litCalls < 2 {
		t.Errorf("got %d literal-call edges from root, want >= 2", litCalls)
	}
	if dynamic != 1 {
		t.Errorf("got %d dynamic edges from root, want 1 (r.Run -> job.Run)", dynamic)
	}
	if deferredLits != 1 {
		t.Errorf("got %d deferred literal edges, want 1", deferredLits)
	}

	// The literal passed to spawn records its destination.
	var passed *FuncNode
	for _, n := range g.Nodes {
		for _, f := range n.PassedTo {
			if f.Name() == "spawn" {
				passed = n
			}
		}
	}
	if passed == nil {
		t.Errorf("no literal recorded as passed to spawn")
	}

	// The recursive rebinding literal calls itself through the binding.
	var recursive bool
	for _, n := range g.Nodes {
		if n.Lit == nil {
			continue
		}
		for _, e := range n.Out {
			if e.Callee == n {
				recursive = true
			}
		}
	}
	if !recursive {
		t.Errorf("again = func(n){ again(n-1) } did not produce a self edge")
	}

	// Reachability: helper is reachable from root through the dynamic
	// edge (root -> job.Run -> helper), but not when go edges and
	// literals are excluded and dynamic edges are blocked.
	all := g.Reachable([]*FuncNode{root}, nil)
	if !all[helper] {
		t.Errorf("helper not reachable from root")
	}
	noDyn := g.Reachable([]*FuncNode{root}, func(e *CallEdge) bool {
		return e.Kind == KindCall && e.Callee != nil && e.Callee.Lit == nil
	})
	if noDyn[helper] {
		t.Errorf("helper reachable from root with only static decl calls followed")
	}

	// Enclosing resolves positions to the innermost function.
	if n := g.Enclosing(worker.Decl.Body.Pos() + 1); n != worker {
		t.Errorf("Enclosing(worker body) = %v", n)
	}

	// Name rendering for methods.
	jobRun := find("Run")
	if jobRun.Name() != "job.Run" {
		t.Errorf("Name() = %q, want job.Run", jobRun.Name())
	}
	_ = types.Universe // keep go/types imported for the helper above
}

func TestGroupDirectives(t *testing.T) {
	pass := loadSource(t, `package tmp

// doc text
//lint:confine delivery
type S struct {
	A int //lint:guarded-by mu
}

//lint:allocfree
func f() {}
`)
	var got []Directive
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			got = append(got, GroupDirectives(cg)...)
		}
	}
	want := map[string]string{"confine": "delivery", "guarded-by": "mu", "allocfree": ""}
	if len(got) != len(want) {
		t.Fatalf("got %d directives, want %d: %v", len(got), len(want), got)
	}
	for _, d := range got {
		if args, ok := want[d.Name]; !ok || args != d.Args {
			t.Errorf("unexpected directive %s %q", d.Name, d.Args)
		}
	}
}

// TestCallGraphInterfaceArgs pins the interface-argument rule: a
// package-local value passed to an interface-typed parameter binds the
// methods of its type that satisfy the interface, as a bound method value
// x.m would — including through a variadic parameter — and nothing is
// bound through an empty interface or for methods outside the interface.
func TestCallGraphInterfaceArgs(t *testing.T) {
	pass := loadSource(t, `package tmp

type handler interface{ Found(int) }

type round struct{}

func (r *round) Found(int) {}
func (r *round) other()    {}

type other struct{}

func (other) Found(int) {}

func lookup(h handler)        { h.Found(1) }
func lookupAll(hs ...handler) {}
func keep(v any)              {}

func step() {
	r := &round{}
	lookup(r)
	lookupAll(other{})
	keep(r)
}
`)
	g := BuildCallGraph(pass)
	step := func() *FuncNode {
		for _, n := range g.Nodes {
			if n.Obj != nil && n.Obj.Name() == "step" {
				return n
			}
		}
		t.Fatal("no node for step")
		return nil
	}()
	bound := make(map[string]int)
	for _, e := range step.Out {
		if e.Kind == KindLexical && e.Callee != nil && e.Callee.Obj != nil {
			bound[e.Callee.Name()]++
			var to []string
			for _, f := range e.Callee.PassedTo {
				to = append(to, f.Name())
			}
			if len(to) != 1 || (to[0] != "lookup" && to[0] != "lookupAll") {
				t.Errorf("%s PassedTo = %v, want its one interface-typed callee", e.Callee.Name(), to)
			}
		}
	}
	want := map[string]int{"round.Found": 1, "other.Found": 1}
	if len(bound) != len(want) || bound["round.Found"] != 1 || bound["other.Found"] != 1 {
		t.Errorf("methods bound by step = %v, want %v", bound, want)
	}
}
