// Package scratchalias enforces the aliasing contract of the zero-alloc
// ...Into refinement APIs (internal/sfc/refine.go).
//
// An ...Into(dst, ..., *sfc.Scratch) call returns a slice backed by the
// caller-reused dst buffer. The sanctioned idiom recycles the destination
// through itself:
//
//	e.coarse = sfc.CoarseClustersInto(e.coarse[:0], curve, r, max, &e.scratch)
//
// Anything else that parks the returned slice in a long-lived place — a
// struct field fed from a different buffer, a map entry, a channel send —
// retains memory that the next recycle of the buffer will silently
// overwrite. Likewise, refilling the same destination buffer while a slice
// from its previous fill is still live clobbers the earlier result.
//
// The same contract covers messages that travel by pointer (sent.go): a
// message handed to a send or back to its transport.MsgPool is dead to
// the caller, except in the branch taken when the send failed.
//
// Deliberate exceptions carry //lint:allow-scratchalias <reason>.
package scratchalias

import (
	"go/ast"
	"go/token"
	"go/types"

	"squid/internal/analysis"
)

// Analyzer is the scratchalias pass.
var Analyzer = &analysis.Analyzer{
	Name: "scratchalias",
	Doc:  "flags retained or clobbered slices returned by the sfc ...Into(dst, scratch) APIs, and reads of a message after it was sent or recycled",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
			checkSent(pass, fn.Body)
		}
	}
	return nil
}

// intoRecord is one ...Into call seen in a function body, with where its
// result went.
type intoRecord struct {
	call    *ast.CallExpr
	name    string       // callee name, for messages
	dstRoot string       // printed root expression of the dst argument
	result  types.Object // local the result was bound to, if any
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	var records []intoRecord

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
				return true // ...Into APIs are single-valued; nothing to map
			}
			for i, rhs := range st.Rhs {
				call, name := intoCall(pass, rhs)
				if call == nil || i >= len(st.Lhs) {
					continue
				}
				records = append(records, classifyAssign(pass, st.Lhs[i], call, name))
			}
		case *ast.SendStmt:
			if call, name := intoCall(pass, st.Value); call != nil {
				pass.Reportf(call.Pos(), "slice returned by %s sent on a channel outlives the reused buffer backing it; send a copy instead", name)
			}
		case *ast.ValueSpec: // var x = FooInto(...)
			for i, v := range st.Values {
				call, name := intoCall(pass, v)
				if call == nil || i >= len(st.Names) {
					continue
				}
				records = append(records, intoRecord{
					call: call, name: name,
					dstRoot: dstRoot(pass, call),
					result:  pass.Info.Defs[st.Names[i]],
				})
			}
		}
		return true
	})

	// Second pass: the same destination buffer refilled while a slice from
	// its previous fill is still referenced. nil destinations are exempt —
	// append grows each of them a fresh backing array.
	for j := 1; j < len(records); j++ {
		rj := records[j]
		if rj.dstRoot == "" || rj.dstRoot == "nil" {
			continue
		}
		for i := 0; i < j; i++ {
			ri := records[i]
			if ri.dstRoot != rj.dstRoot || ri.result == nil {
				continue
			}
			// x = FooInto(x[:0], ...) in a loop recycles through itself:
			// the "previous result" and the buffer are the same value.
			if ri.result.Name() == ri.dstRoot {
				continue
			}
			if usedAfter(fn.Body, pass, ri.result, rj.call.End()) {
				pass.Reportf(rj.call.Pos(), "%s refills buffer %s while %s (filled from it at line %d) is still live; the earlier slice is clobbered",
					rj.name, rj.dstRoot, ri.result.Name(), pass.Fset.Position(ri.call.Pos()).Line)
				break
			}
		}
	}
}

// classifyAssign reports field/map stores of an ...Into result and returns
// the record for liveness tracking.
func classifyAssign(pass *analysis.Pass, lhs ast.Expr, call *ast.CallExpr, name string) intoRecord {
	rec := intoRecord{call: call, name: name, dstRoot: dstRoot(pass, call)}
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name != "_" {
			if obj := pass.Info.Defs[l]; obj != nil {
				rec.result = obj
			} else {
				rec.result = pass.Info.Uses[l]
			}
		}
	case *ast.SelectorExpr:
		// Struct-field store: allowed only as the self-recycle idiom
		// f.buf = FooInto(f.buf[:0], ...).
		if rec.dstRoot != types.ExprString(l) {
			pass.Reportf(call.Pos(), "slice returned by %s stored in field %s without recycling it as the destination; the reused buffer backing it will be overwritten (use %s = %s(%s[:0], ...) or copy)",
				name, types.ExprString(l), types.ExprString(l), name, types.ExprString(l))
		}
	case *ast.IndexExpr:
		if tv, ok := pass.Info.Types[l.X]; ok {
			if _, isMap := types.Unalias(tv.Type).Underlying().(*types.Map); isMap {
				pass.Reportf(call.Pos(), "slice returned by %s stored in a map outlives the reused buffer backing it; store a copy instead", name)
			}
		}
	}
	return rec
}

// intoCall returns (call, name) when e is a call to a function whose name
// ends in "Into" and whose signature takes a *sfc.Scratch.
func intoCall(pass *analysis.Pass, e ast.Expr) (*ast.CallExpr, string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.Info.Uses[fun.Sel]
	default:
		return nil, ""
	}
	fn, ok := obj.(*types.Func)
	if !ok || len(fn.Name()) < 4 || fn.Name()[len(fn.Name())-4:] != "Into" {
		return nil, ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, ""
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isScratchPtr(sig.Params().At(i).Type()) {
			return call, fn.Name()
		}
	}
	return nil, ""
}

// isScratchPtr reports whether t is *Scratch of an sfc package.
func isScratchPtr(t types.Type) bool {
	ptr, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := types.Unalias(ptr.Elem()).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Scratch" && obj.Pkg() != nil &&
		analysis.PkgPathTail(obj.Pkg().Path()) == "sfc"
}

// dstRoot renders the destination argument of an ...Into call with slicing
// stripped: e.coarse[:0] → "e.coarse". The first argument is the
// destination by the API's convention.
func dstRoot(pass *analysis.Pass, call *ast.CallExpr) string {
	if len(call.Args) == 0 {
		return ""
	}
	e := ast.Unparen(call.Args[0])
	for {
		sl, ok := e.(*ast.SliceExpr)
		if !ok {
			break
		}
		e = ast.Unparen(sl.X)
	}
	return types.ExprString(e)
}

// usedAfter reports whether obj is referenced anywhere in body after pos.
func usedAfter(body *ast.BlockStmt, pass *analysis.Pass, obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if ok && id.Pos() > pos && pass.Info.Uses[id] == obj {
			found = true
		}
		return true
	})
	return found
}
