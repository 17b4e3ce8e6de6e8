package scratchalias

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"squid/internal/analysis"
)

// This file holds the second half of the aliasing contract: a message
// that travels by pointer is dead to whoever hands it on. After
//
//	n.send(to, m)       // also Send, SendApp, forward, Route
//	pool.Put(m)         // transport.MsgPool
//
// m belongs to its receiver (which may recycle it at once) or to its
// pool (which zeroed it), so any later read of m — a field, a second
// send, a handler call — sees a message someone else may already be
// reusing. The one exception is the branch taken when the send reported
// failure: the message never left, so the sender still owns it and may
// read it, route its contents elsewhere and put it back:
//
//	if !e.send(p.dest, p.msg) { ... p.msg.Clusters ... }
//
// Only pointer-typed identifiers and selector chains (m, p.msg) are
// tracked; a value argument is copied by the call and stays the caller's.

// handOff maps each send-like function name to the index of the argument
// it takes ownership of.
var handOff = map[string]int{
	"Send":    1,
	"send":    1,
	"SendApp": 1,
	"forward": 1,
	"Route":   1,
}

// checkSent reports reads of a message after the call that handed it on,
// function body by function body (a closure's body is its own scope).
func checkSent(pass *analysis.Pass, body *ast.BlockStmt) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			checkSent(pass, lit.Body)
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if arg, fn := handedOff(pass, call); arg != nil {
				if _, deferred := stack[len(stack)-1].(*ast.DeferStmt); !deferred {
					reportReadsAfter(pass, body, append(stack, call), arg, fn)
				}
			}
		}
		stack = append(stack, n)
		return true
	})
}

// handedOff returns the argument a send-like call or MsgPool.Put takes
// ownership of, when that argument is a tracked pointer expression.
func handedOff(pass *analysis.Pass, call *ast.CallExpr) (ast.Expr, string) {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.Info.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil, ""
	}
	idx, ok := handOff[fn.Name()]
	if fn.Name() == "Put" && isMsgPoolMethod(fn) {
		idx, ok = 0, true
	}
	if !ok || idx >= len(call.Args) {
		return nil, ""
	}
	arg := ast.Unparen(call.Args[idx])
	if trackedRoot(pass, arg) == nil {
		return nil, ""
	}
	if _, ptr := types.Unalias(pass.Info.TypeOf(arg)).(*types.Pointer); !ptr {
		return nil, ""
	}
	return arg, fn.Name()
}

// isMsgPoolMethod reports whether fn is a method of transport.MsgPool.
func isMsgPoolMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := types.Unalias(sig.Recv().Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Origin().Obj()
	return obj.Name() == "MsgPool" && obj.Pkg() != nil &&
		analysis.PkgPathTail(obj.Pkg().Path()) == "transport"
}

// trackedRoot returns the variable at the root of an identifier or a
// selector chain over one (m, p.msg), or nil for any other expression.
func trackedRoot(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if v, ok := pass.Info.Uses[x].(*types.Var); ok {
				return v
			}
			return nil
		case *ast.SelectorExpr:
			if sel := pass.Info.Selections[x]; sel == nil || sel.Kind() != types.FieldVal {
				return nil
			}
			e = ast.Unparen(x.X)
		default:
			return nil
		}
	}
}

// sameExpr reports whether e names the same tracked expression as arg:
// the same root variable reached through the same fields.
func sameExpr(pass *analysis.Pass, e, arg ast.Expr, root types.Object) bool {
	return trackedRoot(pass, e) == root && types.ExprString(e) == types.ExprString(arg)
}

// reportReadsAfter flags every read of arg that can run after the call at
// the end of path (body → … → call): positions past the call, up to the
// end of the innermost block that returns after it, outside the branch
// taken when the send failed and outside the else of an if whose body
// holds the call.
func reportReadsAfter(pass *analysis.Pass, body *ast.BlockStmt, path []ast.Node, arg ast.Expr, fn string) {
	call := path[len(path)-1].(*ast.CallExpr)
	root := trackedRoot(pass, arg)
	end := returnsBy(path)
	var excluded []ast.Node
	for i, n := range path[:len(path)-1] {
		s, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		cond := ast.Unparen(s.Cond)
		switch {
		case path[i+1] == s.Body && s.Else != nil:
			excluded = append(excluded, s.Else) // never runs after the body
		case cond == call && s.Else != nil:
			excluded = append(excluded, s.Else) // if send(...) {} else { failed }
		case isNot(cond, call):
			excluded = append(excluded, s.Body) // if !send(...) { failed }
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil || n.Pos() >= end || slices.Contains(excluded, n) {
			return false
		}
		if n.End() <= call.End() && !(n.Pos() <= call.Pos() && call.End() <= n.End()) {
			return false // entirely before the hand-off
		}
		if e, ok := n.(ast.Expr); ok && e.Pos() > call.End() && sameExpr(pass, e, arg, root) {
			pass.Reportf(e.Pos(), "%s is dead after %s at line %d: the receiver or the pool owns it now (read it before the hand-off, or only where the send failed)",
				types.ExprString(arg), fn, pass.Fset.Position(call.Pos()).Line)
			return false
		}
		return true
	})
}

// isNot reports whether cond is !call.
func isNot(cond ast.Expr, call *ast.CallExpr) bool {
	u, ok := cond.(*ast.UnaryExpr)
	return ok && u.Op == token.NOT && ast.Unparen(u.X) == call
}

// returnsBy returns the end of the innermost block on path that returns
// at its top level once the call's statement has run: nothing past that
// block runs after the call. Without one, the function's end.
func returnsBy(path []ast.Node) token.Pos {
	for i := len(path) - 2; i >= 0; i-- {
		var list []ast.Stmt
		switch b := path[i].(type) {
		case *ast.BlockStmt:
			list = b.List
		case *ast.CaseClause:
			list = b.Body
		case *ast.CommClause:
			list = b.Body
		}
		after := false
		for _, st := range list {
			after = after || st == path[i+1]
			if _, ret := st.(*ast.ReturnStmt); after && ret {
				return path[i].End()
			}
		}
	}
	return path[0].End()
}
