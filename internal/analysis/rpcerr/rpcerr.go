// Package rpcerr forbids silently dropping errors on the RPC path.
//
// Every error returned along the transport.Endpoint / chord RPC surface —
// any function or method declared in a transport or chord package whose
// results include an error, plus net and io calls made from inside a
// transport package (the connection handshake) — must be checked
// or explicitly discarded.
// Silent drops on this path were the root cause of the PR 1 hang class:
// a Send that fails unreachable, unobserved, leaves a subtree waiting on
// an ack that will never come.
//
// A drop is:
//
//   - a bare call statement (ep.Send(to, msg)),
//   - go/defer of such a call (defer ep.Close()),
//   - an assignment that lands the error in the blank identifier with no
//     same-line comment stating why.
//
// A blank discard with a reason comment is legitimate:
//
//	_ = ep.Send(to, msg) // destination may have died meanwhile
//
// (Directive comments — lint: or analysistest want markers — do not count
// as reasons.) Statement-form drops can also be excused with
// //lint:allow-rpcerr <reason>.
package rpcerr

import (
	"go/ast"
	"go/types"
	"strings"

	"squid/internal/analysis"
)

// Analyzer is the rpcerr pass.
var Analyzer = &analysis.Analyzer{
	Name: "rpcerr",
	Doc:  "errors from transport/chord RPC calls must be checked or discarded with a stated reason",
	Run:  run,
}

// rpcPkgs are the package-path tails whose error returns form the RPC
// contract.
var rpcPkgs = map[string]bool{"transport": true, "chord": true}

// wirePkgs are standard-library packages whose error returns join the
// contract inside a transport package: the connection handshake writes
// the preamble with net.Conn.Write and reads the ack with io.ReadFull,
// and a dropped error there leaves a peer waiting on bytes that were never
// sent.
var wirePkgs = map[string]bool{"net": true, "io": true}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		commented := commentLines(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if name, ok := rpcErrCall(pass, st.X); ok {
					pass.Reportf(st.Pos(), "error from %s dropped; check it or discard with `_ =` and a reason comment", name)
				}
			case *ast.GoStmt:
				if name, ok := rpcErrCall(pass, st.Call); ok {
					pass.Reportf(st.Pos(), "error from go %s is unobservable; wrap the call and handle the error in the goroutine", name)
				}
			case *ast.DeferStmt:
				if name, ok := rpcErrCall(pass, st.Call); ok {
					pass.Reportf(st.Pos(), "error from defer %s dropped; defer a closure that handles or reasons away the error", name)
				}
			case *ast.AssignStmt:
				checkAssign(pass, st, commented)
			}
			return true
		})
	}
	return nil
}

// checkAssign flags RPC errors assigned to the blank identifier on lines
// without a reason comment.
func checkAssign(pass *analysis.Pass, st *ast.AssignStmt, commented map[int]bool) {
	flag := func(call ast.Expr, name string) {
		if commented[pass.Fset.Position(st.Pos()).Line] {
			return // _ = ... // <why this is safe to drop>
		}
		pass.Reportf(call.Pos(), "error from %s discarded without a reason; add a same-line comment saying why the drop is safe", name)
	}
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		// Multi-value form: v, err := f() — find the error positions.
		name, ok := rpcErrCall(pass, st.Rhs[0])
		if !ok {
			return
		}
		call := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
		sig := calleeSignature(pass, call)
		if sig == nil || sig.Results().Len() != len(st.Lhs) {
			return
		}
		for i := 0; i < sig.Results().Len(); i++ {
			if !isErrorType(sig.Results().At(i).Type()) {
				continue
			}
			if id, ok := ast.Unparen(st.Lhs[i]).(*ast.Ident); ok && id.Name == "_" {
				flag(call, name)
				return
			}
		}
		return
	}
	for i, rhs := range st.Rhs {
		name, ok := rpcErrCall(pass, rhs)
		if !ok || i >= len(st.Lhs) {
			continue
		}
		if id, ok := ast.Unparen(st.Lhs[i]).(*ast.Ident); ok && id.Name == "_" {
			flag(rhs, name)
		}
	}
}

// rpcErrCall reports whether e is a call on the RPC path whose results
// include an error, returning a printable callee name.
func rpcErrCall(pass *analysis.Pass, e ast.Expr) (string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = pass.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = pass.Info.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	declPkg := fn.Pkg()
	if recv := sig.Recv(); recv != nil {
		t := types.Unalias(recv.Type())
		if ptr, ok := t.(*types.Pointer); ok {
			t = types.Unalias(ptr.Elem())
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			declPkg = named.Obj().Pkg()
		}
	}
	if declPkg == nil {
		return "", false
	}
	if !rpcPkgs[analysis.PkgPathTail(declPkg.Path())] &&
		!(wirePkgs[declPkg.Path()] && analysis.PkgPathTail(pass.Pkg.Path()) == "transport") {
		return "", false
	}
	hasErr := false
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			hasErr = true
		}
	}
	if !hasErr {
		return "", false
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
			t = ptr.Elem()
		}
		return types.TypeString(types.Unalias(t), func(p *types.Package) string { return p.Name() }) + "." + fn.Name(), true
	}
	return declPkg.Name() + "." + fn.Name(), true
}

// calleeSignature returns the static signature of call's callee.
func calleeSignature(pass *analysis.Pass, call *ast.CallExpr) *types.Signature {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.Info.Uses[fun.Sel]
	}
	if obj == nil {
		return nil
	}
	sig, _ := obj.Type().(*types.Signature)
	return sig
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// commentLines maps source lines of file carrying a prose comment — one
// whose text is neither a lint/go directive nor an analysistest want
// marker. Those lines document why a blank discard is safe.
func commentLines(pass *analysis.Pass, file *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			text = strings.TrimSpace(strings.TrimPrefix(text, "/*"))
			if strings.HasPrefix(text, "want ") ||
				strings.HasPrefix(text, "lint:") ||
				strings.HasPrefix(text, "go:") {
				continue
			}
			if text == "" || text == "*/" {
				continue
			}
			lines[pass.Fset.Position(c.Pos()).Line] = true
		}
	}
	return lines
}
