// Package confine enforces goroutine confinement: fields annotated
//
//	//lint:confine <label>
//
// (on a struct type declaration, covering every field, or on a single
// field) may only be accessed from functions reachable from that label's
// entrypoints — functions annotated //lint:entry <label>. The engine's
// delivery goroutine is the motivating case: Engine's mutable query state
// has no mutex because every mutation happens on the goroutine draining
// the node's delivery loop.
//
// A `go` statement breaks confinement: the launched function and every
// function it reaches run on a fresh goroutine, so a confined-field
// access there is a data race even if the launch site itself was on the
// owning goroutine. The one sanctioned way back is re-entry: a function
// literal passed to a callee named Invoke is re-executed on the delivery
// goroutine by the node's delivery loop, so it counts as a fresh
// entrypoint for every label. Timer callbacks run on a timer goroutine
// and are treated like go launches: literals handed to the time
// package (AfterFunc, …), every Fire method whose receiver implements
// transport.TimerHandler, and literals converted to a func type that
// implements it (transport.TimerFunc). A bound method value (x.m) passed
// or assigned is treated exactly like a literal in the same position.
package confine

import (
	"go/ast"
	"go/types"

	"squid/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "confine",
	Doc: "fields annotated //lint:confine <label> may only be accessed from functions " +
		"reachable from that label's //lint:entry entrypoints; go statements break " +
		"confinement unless the callee re-enters via Invoke",
	Run: run,
}

func run(pass *analysis.Pass) error {
	confined := confinedFields(pass)
	if len(confined) == 0 {
		return nil
	}
	g := analysis.BuildCallGraph(pass)

	labels := make(map[string]bool)
	for _, l := range confined {
		labels[l] = true
	}

	// Entry roots per label.
	roots := make(map[string][]*analysis.FuncNode)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if label, ok := analysis.HasDirective("entry", fd.Doc); ok {
				labels[label] = true
				if obj, _ := pass.Info.Defs[fd.Name].(*types.Func); obj != nil {
					roots[label] = append(roots[label], g.NodeOf(obj))
				}
			}
		}
	}
	// Invoke re-entry literals (and bound method values) are fresh roots
	// for every label; timer callbacks run on the timer goroutine.
	timer := timerCallbacks(pass, g)
	offGoroutine := func(n *analysis.FuncNode) bool {
		return n.LaunchedByGo || passedToTimer(n) || timer[n]
	}
	for _, n := range g.Nodes {
		if passedToInvoke(n) {
			for l := range labels {
				roots[l] = append(roots[l], n)
			}
		}
	}

	// A label's ownership propagates along same-goroutine edges: plain and
	// deferred calls, dynamic dispatch, and lexical nesting (a literal, or
	// a bound method value taken) — except into function values that leave
	// the goroutine (go launch, timer callback) or that are themselves
	// re-entry roots.
	follow := func(e *analysis.CallEdge) bool {
		switch e.Kind {
		case analysis.KindGo:
			return false
		case analysis.KindLexical:
			l := e.Callee
			return !offGoroutine(l) && !passedToInvoke(l)
		}
		return true
	}
	labeled := make(map[string]map[*analysis.FuncNode]bool)
	for l := range labels {
		labeled[l] = g.Reachable(roots[l], follow)
	}

	// Taint: everything reachable from a goroutine launch or timer
	// callback runs off the owning goroutine. Taint flows through every
	// edge — including go — but not into re-entry literals.
	var taintRoots []*analysis.FuncNode
	for _, n := range g.Nodes {
		if offGoroutine(n) {
			taintRoots = append(taintRoots, n)
		}
	}
	tainted := g.Reachable(taintRoots, func(e *analysis.CallEdge) bool {
		return !(e.Kind == analysis.KindLexical && passedToInvoke(e.Callee))
	})

	for _, file := range pass.Files {
		ast.Inspect(file, func(node ast.Node) bool {
			sel, ok := node.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			v, ok := pass.Info.Uses[sel.Sel].(*types.Var)
			if !ok {
				return true
			}
			label, ok := confined[v]
			if !ok {
				return true
			}
			ctx := g.Enclosing(sel.Pos())
			if ctx == nil {
				return true
			}
			switch {
			case tainted[ctx]:
				pass.Reportf(sel.Sel.Pos(),
					"%s is confined to the %q goroutine but %s runs on another goroutine, a go launch or a timer (re-enter via Invoke)",
					v.Name(), label, ctx.Name())
			case !labeled[label][ctx]:
				pass.Reportf(sel.Sel.Pos(),
					"%s is confined to the %q goroutine but %s is not reachable from its //lint:entry entrypoints",
					v.Name(), label, ctx.Name())
			}
			return true
		})
	}
	return nil
}

// confinedFields maps each annotated struct field to its label: a
// type-level //lint:confine covers every field, a field-level one covers
// that field (and overrides the type's label).
func confinedFields(pass *analysis.Pass) map[*types.Var]string {
	confined := make(map[*types.Var]string)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				typeLabel, typeOK := analysis.HasDirective("confine", gd.Doc, ts.Doc, ts.Comment)
				for _, field := range st.Fields.List {
					label, ok := analysis.HasDirective("confine", field.Doc, field.Comment)
					if !ok {
						label, ok = typeLabel, typeOK
					}
					if !ok || label == "" {
						continue
					}
					for _, name := range field.Names {
						if v, ok := pass.Info.Defs[name].(*types.Var); ok {
							confined[v] = label
						}
					}
				}
			}
		}
	}
	return confined
}

// passedToInvoke reports whether the literal is handed to a callee named
// Invoke — squid's re-entry point onto the delivery goroutine.
func passedToInvoke(n *analysis.FuncNode) bool {
	for _, f := range n.PassedTo {
		if f.Name() == "Invoke" {
			return true
		}
	}
	return false
}

// passedToTimer reports whether the literal is handed to the time
// package (AfterFunc and friends run it on the timer goroutine).
func passedToTimer(n *analysis.FuncNode) bool {
	for _, f := range n.PassedTo {
		if f.Pkg() != nil && f.Pkg().Path() == "time" {
			return true
		}
	}
	return false
}

// timerCallbacks returns the package's transport.TimerHandler callbacks:
// every method named Fire whose receiver implements the interface, and
// every function literal converted to a func type that implements it.
// A Clock runs them on its own goroutine (a fresh goroutine per fire for
// the real clock), so they must re-enter via Invoke like a time.AfterFunc
// literal.
func timerCallbacks(pass *analysis.Pass, g *analysis.CallGraph) map[*analysis.FuncNode]bool {
	iface := timerHandler(pass.Pkg)
	if iface == nil {
		return nil
	}
	out := make(map[*analysis.FuncNode]bool)
	for _, n := range g.Nodes {
		if n.Obj == nil || n.Obj.Name() != "Fire" {
			continue
		}
		if recv := n.Obj.Type().(*types.Signature).Recv(); recv != nil && types.Implements(recv.Type(), iface) {
			out[n] = true
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			lit, ok := ast.Unparen(call.Args[0]).(*ast.FuncLit)
			if !ok {
				return true
			}
			if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && types.Implements(tv.Type, iface) {
				if n := g.LitNode(lit); n != nil {
					out[n] = true
				}
			}
			return true
		})
	}
	return out
}

// timerHandler returns the TimerHandler interface of the transport package
// pkg is or imports, or nil.
func timerHandler(pkg *types.Package) *types.Interface {
	for _, p := range append([]*types.Package{pkg}, pkg.Imports()...) {
		if analysis.PkgPathTail(p.Path()) != "transport" {
			continue
		}
		if obj, ok := p.Scope().Lookup("TimerHandler").(*types.TypeName); ok {
			if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
				return iface
			}
		}
	}
	return nil
}
