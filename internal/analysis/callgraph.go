package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the call-graph layer the goroutine-confinement, lock-
// discipline and alloc-free analyzers share. It turns one type-checked
// package into a static call graph: a node per declared function and per
// function literal, an edge per call site, with `go` launches, deferred
// calls, interface dispatch (expanded over the package-local method set),
// the lexical nesting of literals and the methods bound by taking a method
// value or passing a value as an interface all represented explicitly. On top
// of the graph, Reachable answers the transitive queries the analyzers
// ask ("which functions run on the delivery goroutine?", "which
// functions sit on an alloc-free hot path?").

// CallKind classifies a call-graph edge.
type CallKind int

const (
	// KindCall is an ordinary (or deferred — see CallEdge.Deferred)
	// function or method call executing on the caller's goroutine.
	KindCall CallKind = iota
	// KindGo is a `go` statement: the callee starts a new goroutine.
	KindGo
	// KindDynamic is an interface-method call resolved to a package-local
	// concrete implementation via the method set.
	KindDynamic
	// KindLexical links a function to a literal nested inside it, or to a
	// package-local method whose bound value (x.m) it takes — explicitly,
	// or by passing a package-local value x to an interface-typed
	// parameter, which binds x's methods that satisfy the interface. It is
	// not a call — it says the function value was created (and captures
	// variables or its receiver) in the parent's context.
	KindLexical
)

// FuncNode is one function in the graph: either a declared function
// (Decl/Obj set) or a function literal (Lit set, Parent the lexically
// enclosing node).
type FuncNode struct {
	Obj    *types.Func   // nil for literals
	Decl   *ast.FuncDecl // nil for literals
	Lit    *ast.FuncLit  // nil for declared functions
	Parent *FuncNode     // enclosing function, literals only

	Out []*CallEdge // edges where this node is the caller
	In  []*CallEdge // edges where this node is the callee

	// LaunchedByGo marks a literal that is the operand of a `go`
	// statement (directly, or through a local variable binding).
	LaunchedByGo bool
	// Deferred marks a literal that is the operand of a `defer`
	// statement: it runs on the same goroutine, but at an unknown
	// program point (function exit).
	Deferred bool
	// PassedTo lists every resolved function this literal is passed to
	// as an argument. Analyzers use it to classify escape routes: a
	// literal handed to chord's Invoke re-enters the delivery goroutine,
	// one handed to time.AfterFunc runs on the runtime timer goroutine.
	// A declared method whose bound value (x.m) is passed — or whose
	// receiver is passed as an interface value it helps satisfy — records
	// the same, so it escapes the way a literal in that position would.
	PassedTo []*types.Func
}

// Name renders a node for diagnostics: "Engine.Deliver", or
// "function literal in Engine.watchCtx" for literals.
func (n *FuncNode) Name() string {
	if n.Obj != nil {
		if recv := n.Obj.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return named.Obj().Name() + "." + n.Obj.Name()
			}
		}
		return n.Obj.Name()
	}
	for p := n.Parent; p != nil; p = p.Parent {
		if p.Obj != nil {
			return "function literal in " + p.Name()
		}
	}
	return "function literal"
}

// body returns the node's body block (nil for bodyless declarations).
func (n *FuncNode) body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	if n.Lit != nil {
		return n.Lit.Body
	}
	return nil
}

// CallEdge is one call site (or lexical-nesting link).
type CallEdge struct {
	Caller *FuncNode
	// Callee is the target when it lives in the analyzed package
	// (declared function or literal); nil for calls out of the package.
	Callee *FuncNode
	// Target is the resolved callee object, set for every call to a
	// declared function — including out-of-package ones. Nil for direct
	// literal calls and lexical links.
	Target *types.Func
	// Site is the syntax that created the edge: *ast.CallExpr for calls,
	// *ast.GoStmt / *ast.DeferStmt wrappers for launches, *ast.FuncLit
	// for lexical links.
	Site ast.Node
	Kind CallKind
	// Deferred marks KindCall edges created by a defer statement.
	Deferred bool
}

// CallGraph is the static call graph of one package.
type CallGraph struct {
	pass  *Pass
	Nodes []*FuncNode

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
}

// NodeOf returns the graph node for a declared function, or nil.
func (g *CallGraph) NodeOf(obj *types.Func) *FuncNode { return g.byObj[obj] }

// LitNode returns the graph node for a function literal, or nil.
func (g *CallGraph) LitNode(lit *ast.FuncLit) *FuncNode { return g.byLit[lit] }

// Enclosing returns the innermost function whose body contains pos, or
// nil for positions outside any function (package-level declarations).
func (g *CallGraph) Enclosing(pos token.Pos) *FuncNode {
	var best *FuncNode
	var bestSpan token.Pos
	for _, n := range g.Nodes {
		body := n.body()
		if body == nil || pos < body.Pos() || pos > body.End() {
			continue
		}
		span := body.End() - body.Pos()
		if best == nil || span < bestSpan {
			best, bestSpan = n, span
		}
	}
	return best
}

// Reachable returns the set of nodes reachable from roots over edges
// admitted by follow (nil follows every edge), roots included.
func (g *CallGraph) Reachable(roots []*FuncNode, follow func(*CallEdge) bool) map[*FuncNode]bool {
	seen := make(map[*FuncNode]bool)
	stack := make([]*FuncNode, 0, len(roots))
	for _, r := range roots {
		if r != nil && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range n.Out {
			if e.Callee == nil || seen[e.Callee] {
				continue
			}
			if follow != nil && !follow(e) {
				continue
			}
			seen[e.Callee] = true
			stack = append(stack, e.Callee)
		}
	}
	return seen
}

// BuildCallGraph constructs the call graph for the pass's package.
func BuildCallGraph(pass *Pass) *CallGraph {
	g := &CallGraph{
		pass:  pass,
		byObj: make(map[*types.Func]*FuncNode),
		byLit: make(map[*ast.FuncLit]*FuncNode),
	}
	// Phase 1: a node per declared function, so calls resolve regardless
	// of declaration order.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, _ := pass.Info.Defs[fd.Name].(*types.Func)
			n := &FuncNode{Obj: obj, Decl: fd}
			g.Nodes = append(g.Nodes, n)
			if obj != nil {
				g.byObj[obj] = n
			}
		}
	}
	// Phase 2: walk bodies, creating literal nodes and edges.
	b := &graphBuilder{g: g, pass: pass, bindings: make(map[types.Object][]*FuncNode)}
	for _, n := range append([]*FuncNode(nil), g.Nodes...) {
		if n.Decl != nil && n.Decl.Body != nil {
			b.walkBody(n, n.Decl.Body)
		}
	}
	return g
}

// graphBuilder carries the state of phase 2. bindings maps local
// variables to the literals assigned to them, so `step := func(...)`
// followed by `step(x)` (and the recursive `step = func(...)` form)
// produce real edges.
type graphBuilder struct {
	g        *CallGraph
	pass     *Pass
	bindings map[types.Object][]*FuncNode
}

func (b *graphBuilder) walkBody(ctx *FuncNode, body *ast.BlockStmt) {
	ast.Inspect(body, func(node ast.Node) bool {
		switch n := node.(type) {
		case *ast.FuncLit:
			b.lit(ctx, n)
			return false // lit walks its own body
		case *ast.GoStmt:
			b.call(ctx, n.Call, KindGo, n, false)
			return false
		case *ast.DeferStmt:
			b.call(ctx, n.Call, KindCall, n, true)
			return false
		case *ast.CallExpr:
			b.call(ctx, n, KindCall, n, false)
			return false
		case *ast.AssignStmt:
			b.bindStmt(ctx, n.Lhs, n.Rhs)
			return false
		case *ast.ValueSpec:
			idents := make([]ast.Expr, len(n.Names))
			for i, id := range n.Names {
				idents[i] = id
			}
			b.bindStmt(ctx, idents, n.Values)
			return false
		case *ast.SelectorExpr:
			b.methodValue(ctx, n)
		}
		return true
	})
}

// methodValue adds the lexical edge for a bound method value x.m taken in
// ctx (a selector that is not itself called) and returns the method's
// node; nil when e is not a method value of a package-local method.
func (b *graphBuilder) methodValue(ctx *FuncNode, e ast.Expr) *FuncNode {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := b.pass.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil
	}
	m, _ := s.Obj().(*types.Func)
	n := b.g.byObj[m]
	if n != nil {
		b.edge(&CallEdge{Caller: ctx, Callee: n, Site: sel, Kind: KindLexical})
	}
	return n
}

// lit creates the node and lexical edge for a literal and walks its body
// in its own context.
func (b *graphBuilder) lit(ctx *FuncNode, l *ast.FuncLit) *FuncNode {
	if n := b.g.byLit[l]; n != nil {
		return n
	}
	n := &FuncNode{Lit: l, Parent: ctx}
	b.g.Nodes = append(b.g.Nodes, n)
	b.g.byLit[l] = n
	b.edge(&CallEdge{Caller: ctx, Callee: n, Site: l, Kind: KindLexical})
	b.walkBody(n, l.Body)
	return n
}

// bindStmt records `f := func(...)` / `f = func(...)` / `var f = func(...)`
// bindings, and `f := x.m` bindings of method values, and walks the
// non-literal parts of the statement.
func (b *graphBuilder) bindStmt(ctx *FuncNode, lhs, rhs []ast.Expr) {
	for i, r := range rhs {
		var id *ast.Ident
		var obj types.Object
		if i < len(lhs) {
			id, _ = lhs[i].(*ast.Ident)
		}
		if id != nil {
			obj = b.pass.Info.Defs[id]
			if obj == nil {
				obj = b.pass.Info.Uses[id]
			}
		}
		if n := b.methodValue(ctx, r); n != nil {
			if obj != nil {
				b.bindings[obj] = append(b.bindings[obj], n)
			}
			b.walkExpr(ctx, ast.Unparen(r).(*ast.SelectorExpr).X)
			continue
		}
		if l, ok := r.(*ast.FuncLit); ok && id != nil {
			// Bind before walking the body so `step = func(...)` can
			// call itself recursively through the binding.
			n := &FuncNode{Lit: l, Parent: ctx}
			b.g.Nodes = append(b.g.Nodes, n)
			b.g.byLit[l] = n
			if obj != nil {
				b.bindings[obj] = append(b.bindings[obj], n)
			}
			b.edge(&CallEdge{Caller: ctx, Callee: n, Site: l, Kind: KindLexical})
			b.walkBody(n, l.Body)
			continue
		}
		b.walkExpr(ctx, r)
	}
	for _, l := range lhs {
		b.walkExpr(ctx, l)
	}
}

// walkExpr resumes the normal walk for a subexpression.
func (b *graphBuilder) walkExpr(ctx *FuncNode, e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(node ast.Node) bool {
		switch n := node.(type) {
		case *ast.FuncLit:
			b.lit(ctx, n)
			return false
		case *ast.CallExpr:
			b.call(ctx, n, KindCall, n, false)
			return false
		case *ast.SelectorExpr:
			b.methodValue(ctx, n)
		}
		return true
	})
}

// call resolves one call site and adds its edges, then walks Fun and the
// arguments (recording PassedTo for literal and method-value arguments).
func (b *graphBuilder) call(ctx *FuncNode, call *ast.CallExpr, kind CallKind, site ast.Node, deferred bool) {
	info := b.pass.Info
	fun := ast.Unparen(call.Fun)

	var target *types.Func
	switch f := fun.(type) {
	case *ast.FuncLit:
		n := b.lit(ctx, f)
		b.edge(&CallEdge{Caller: ctx, Callee: n, Site: site, Kind: kind, Deferred: deferred})
		if kind == KindGo {
			n.LaunchedByGo = true
		}
		if deferred {
			n.Deferred = true
		}
	case *ast.Ident:
		switch obj := info.Uses[f].(type) {
		case *types.Func:
			target = obj
		case *types.Var:
			for _, n := range b.bindings[obj] {
				b.edge(&CallEdge{Caller: ctx, Callee: n, Site: site, Kind: kind, Deferred: deferred})
				if kind == KindGo {
					n.LaunchedByGo = true
				}
				if deferred {
					n.Deferred = true
				}
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok && sel.Kind() == types.MethodVal {
			if m, ok := sel.Obj().(*types.Func); ok {
				target = m
				if types.IsInterface(sel.Recv()) {
					b.dynamicEdges(ctx, m, sel.Recv(), site, kind, deferred)
				}
			}
		} else if m, ok := info.Uses[f.Sel].(*types.Func); ok {
			target = m // package-qualified call
		}
		b.walkExpr(ctx, f.X)
	}
	if target != nil {
		b.edge(&CallEdge{Caller: ctx, Callee: b.g.byObj[target], Target: target, Site: site, Kind: kind, Deferred: deferred})
		if callee := b.g.byObj[target]; callee != nil {
			if kind == KindGo {
				callee.LaunchedByGo = true
			}
		}
	}
	for i, arg := range call.Args {
		b.interfaceArg(ctx, call, i, target)
		arg = ast.Unparen(arg)
		if l, ok := arg.(*ast.FuncLit); ok {
			n := b.lit(ctx, l)
			if target != nil {
				n.PassedTo = append(n.PassedTo, target)
			}
			continue
		}
		// A bound method value escapes like a literal in its place.
		if n := b.methodValue(ctx, arg); n != nil {
			if target != nil {
				n.PassedTo = append(n.PassedTo, target)
			}
			b.walkExpr(ctx, arg.(*ast.SelectorExpr).X)
			continue
		}
		// A bound literal handed onward by name inherits the escape route.
		if id, ok := arg.(*ast.Ident); ok {
			if obj, ok := info.Uses[id].(*types.Var); ok {
				for _, n := range b.bindings[obj] {
					if target != nil {
						n.PassedTo = append(n.PassedTo, target)
					}
				}
			}
		}
		b.walkExpr(ctx, arg)
	}
}

// interfaceArg binds methods through an interface-typed argument: when
// call's i-th argument is a value of a package-local concrete type and the
// parameter it lands in is a non-empty interface, the callee may call any
// method of the interface on it — so each method of the argument's type
// that satisfies the interface gets the KindLexical edge (and PassedTo
// entry) a bound method value x.m in that position would.
func (b *graphBuilder) interfaceArg(ctx *FuncNode, call *ast.CallExpr, i int, target *types.Func) {
	info := b.pass.Info
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() {
		return // a conversion, not a call
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	var pt types.Type
	switch last := params.Len() - 1; {
	case sig.Variadic() && i >= last:
		pt = params.At(last).Type()
		if call.Ellipsis == token.NoPos {
			pt = pt.(*types.Slice).Elem()
		}
	case i < params.Len():
		pt = params.At(i).Type()
	default:
		return
	}
	iface, ok := pt.Underlying().(*types.Interface)
	if !ok || iface.NumMethods() == 0 {
		return
	}
	at := info.TypeOf(call.Args[i])
	if at == nil || types.IsInterface(at) {
		return
	}
	base := at
	if p, ok := at.(*types.Pointer); ok {
		base = p.Elem()
	}
	named, ok := base.(*types.Named)
	if !ok || named.Obj().Pkg() != b.pass.Pkg {
		return
	}
	for j := 0; j < iface.NumMethods(); j++ {
		m := iface.Method(j)
		obj, _, _ := types.LookupFieldOrMethod(at, true, m.Pkg(), m.Name())
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		n := b.g.byObj[fn.Origin()]
		if n == nil {
			continue
		}
		b.edge(&CallEdge{Caller: ctx, Callee: n, Site: call.Args[i], Kind: KindLexical})
		if target != nil {
			n.PassedTo = append(n.PassedTo, target)
		}
	}
}

// dynamicEdges expands an interface-method call over the package-local
// method set: every named type in the package implementing the interface
// contributes a KindDynamic edge to its implementation of the method.
func (b *graphBuilder) dynamicEdges(ctx *FuncNode, m *types.Func, recv types.Type, site ast.Node, kind CallKind, deferred bool) {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return
	}
	scope := b.pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		var impl types.Type
		if types.Implements(named, iface) {
			impl = named
		} else if ptr := types.NewPointer(named); types.Implements(ptr, iface) {
			impl = ptr
		} else {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, m.Pkg(), m.Name())
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if callee := b.g.byObj[fn]; callee != nil {
			k := kind
			if k == KindCall {
				k = KindDynamic
			}
			b.edge(&CallEdge{Caller: ctx, Callee: callee, Target: fn, Site: site, Kind: k, Deferred: deferred})
		}
	}
}

func (b *graphBuilder) edge(e *CallEdge) {
	if e.Caller != nil {
		e.Caller.Out = append(e.Caller.Out, e)
	}
	if e.Callee != nil {
		e.Callee.In = append(e.Callee.In, e)
	}
}

// CalleeOf resolves a call expression to the declared function or method
// it statically invokes, or nil for dynamic calls. Shared by analyzers
// that classify individual call sites without building a full graph.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// Directive is one //lint:<name> <args> annotation. The vocabulary:
//
//	//lint:confine <label>     confine a type's (or field's) mutable state
//	//lint:entry <label>       a goroutine entrypoint for that label
//	//lint:guarded-by <mutex>  field may only be touched holding the mutex
//	//lint:holds <var>.<mutex> function is called with the mutex held
//	//lint:allocfree           function must not allocate on any path
//	//lint:allow-<analyzer> <reason>  suppress one finding (see Reportf)
type Directive struct {
	Name string
	Args string
	Pos  token.Pos
}

// parseDirective parses one comment as a //lint: directive.
func parseDirective(c *ast.Comment) (Directive, bool) {
	text := strings.TrimPrefix(c.Text, "//")
	text = strings.TrimPrefix(text, "/*")
	text = strings.TrimSpace(strings.TrimSuffix(text, "*/"))
	rest, ok := strings.CutPrefix(text, "lint:")
	if !ok {
		return Directive{}, false
	}
	name, args, _ := strings.Cut(rest, " ")
	if name == "" {
		return Directive{}, false
	}
	return Directive{Name: name, Args: strings.TrimSpace(args), Pos: c.Pos()}, true
}

// GroupDirectives extracts the //lint: directives from doc / line comment
// groups (nil groups are fine). This is how annotations attach to
// declarations: a directive in a FuncDecl's doc comment, a struct
// field's doc comment, or a field's trailing line comment.
func GroupDirectives(groups ...*ast.CommentGroup) []Directive {
	var out []Directive
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if d, ok := parseDirective(c); ok {
				out = append(out, d)
			}
		}
	}
	return out
}

// HasDirective reports whether the groups carry //lint:<name>, returning
// its arguments.
func HasDirective(name string, groups ...*ast.CommentGroup) (args string, ok bool) {
	for _, d := range GroupDirectives(groups...) {
		if d.Name == name {
			return d.Args, true
		}
	}
	return "", false
}

// FuncDirective reports whether fn's declaration in pkg carries
// //lint:<name>. It is the cross-package summary hook: an analyzer
// checking squid/internal/chord can ask whether a wire.Encoder method it
// calls is itself annotated //lint:allocfree. A method of an instantiated
// generic type is looked up by its generic declaration.
func FuncDirective(pkg *Package, fn *types.Func, name string) (args string, ok bool) {
	if pkg == nil || fn == nil {
		return "", false
	}
	fn = fn.Origin()
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, okd := decl.(*ast.FuncDecl)
			if !okd {
				continue
			}
			if pkg.Info.Defs[fd.Name] == fn {
				return HasDirective(name, fd.Doc)
			}
		}
	}
	return "", false
}
