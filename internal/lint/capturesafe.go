package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// This file implements the capturesafe rule: a closure-capture escape
// analysis for worker closures — the function literals handed to
// par.Each / par.ForEach and the bodies of `go` statements. Those bodies
// run concurrently with their siblings, so a write to a variable captured
// from the enclosing frame is a data race on the exploration hot path
// unless it lands in one of the sanctioned patterns:
//
//   - index-landed: the write goes through a slice or array index
//     (out[i] = ..., results[i].field = ...) — each worker owns its slot.
//   - lock-guarded: the write happens while a mutex is held; the rule runs
//     the guardedby flow walk over the closure body, so Lock/Unlock
//     ordering is respected (a write before the Lock is still a finding).
//   - atomic: typed-atomic traffic is method calls, not assignments, so
//     it is clean by construction. Pointer-style sync/atomic calls
//     (atomic.AddInt64(&x, 1)) are findings anywhere in the module: a
//     location reached through them can also be read or written plainly,
//     and only a typed atomic (atomic.Int64 and friends) rules that out.
//   - closure-local: a variable declared inside the closure belongs to the
//     worker; writes to it are invisible to siblings.
//
// Map-index writes into a captured map are findings — concurrent map
// writes are a runtime fault, not merely nondeterminism. A nested function
// literal is treated as running on the worker's frame (the common case is
// a synchronous callback like a pause predicate); nested `go` bodies and
// nested par worker closures are audited separately with their own capture
// sets. Writes laundered through a captured pointer held in a local are
// not tracked. Waive a deliberate site with
// `//bulklint:allow capturesafe <why>`.

// parWorkerFuncs are the internal/par entry points whose closure arguments
// run on pool workers.
var parWorkerFuncs = map[string]bool{
	"Each":    true,
	"ForEach": true,
}

func analyzerCaptureSafe() *Analyzer {
	return &Analyzer{
		Name: "capturesafe",
		Doc:  "captured worker-closure write without an index, lock or atomic landing; pointer-style sync/atomic call",
		Run: func(pkgs []*Package, r *Reporter) {
			for _, pkg := range pkgs {
				for _, f := range pkg.Files {
					ast.Inspect(f, func(n ast.Node) bool {
						switch n := n.(type) {
						case *ast.GoStmt:
							if lit, ok := unparen(n.Call.Fun).(*ast.FuncLit); ok {
								checkWorkerLit(pkg, lit, "go-statement body", r)
							}
						case *ast.CallExpr:
							if fn := staticCallee(pkg, n); fn != nil && fn.Pkg() != nil &&
								fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil {
								r.Report(pkg, n.Pos(), "capturesafe",
									"pointer-style sync/atomic call %s; use a typed atomic (atomic.Int64, …) so no plain load or store can mix with it",
									fn.Name())
							}
							if name := parWorkerCallee(pkg, n); name != "" {
								for _, arg := range n.Args {
									if lit, ok := unparen(arg).(*ast.FuncLit); ok {
										checkWorkerLit(pkg, lit, "par."+name+" worker body", r)
									}
								}
							}
						}
						return true
					})
				}
			}
		},
	}
}

// parWorkerCallee returns the par worker function a call targets, or "".
func parWorkerCallee(pkg *Package, call *ast.CallExpr) string {
	fn := staticCallee(pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if !strings.HasSuffix(fn.Pkg().Path(), "internal/par") {
		return ""
	}
	if !parWorkerFuncs[fn.Name()] {
		return ""
	}
	return fn.Name()
}

// checkWorkerLit audits one worker closure body.
func checkWorkerLit(pkg *Package, lit *ast.FuncLit, where string, r *Reporter) {
	w := &captureWalker{
		pkg:    pkg,
		r:      r,
		where:  where,
		inside: map[types.Object]bool{},
		nested: map[*ast.FuncLit]bool{},
	}
	// Everything declared anywhere inside the literal — parameters,
	// short-variable declarations, even declarations of nested closures —
	// is worker-local: a sibling worker cannot observe it.
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pkg.Info.Defs[id]; obj != nil {
				w.inside[obj] = true
			}
		}
		return true
	})
	// Nested worker closures get their own audit with their own capture
	// set; skip them here so their writes are not judged twice.
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if inner, ok := unparen(n.Call.Fun).(*ast.FuncLit); ok {
				w.nested[inner] = true
			}
		case *ast.CallExpr:
			if parWorkerCallee(pkg, n) != "" {
				for _, arg := range n.Args {
					if inner, ok := unparen(arg).(*ast.FuncLit); ok {
						w.nested[inner] = true
					}
				}
			}
		}
		return true
	})
	flowWalk(lockState{}, lit.Body.List, flowHooks[lockState]{
		fork:  forkLocks,
		merge: mergeLocks,
		stmt:  w.stmt,
	})
}

// captureWalker carries one closure audit's state through the flow walk.
type captureWalker struct {
	pkg    *Package
	r      *Reporter
	where  string
	inside map[types.Object]bool
	nested map[*ast.FuncLit]bool
}

// stmt scans one simple statement under the current lockset.
func (w *captureWalker) stmt(st lockState, s ast.Stmt) {
	_, isDefer := s.(*ast.DeferStmt)
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return !w.nested[n]
		case *ast.CallExpr:
			w.call(st, n, isDefer)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				w.checkWrite(st, lhs)
			}
		case *ast.IncDecStmt:
			w.checkWrite(st, n.X)
		}
		return true
	})
}

// call tracks mutex acquisition/release, mirroring the guardedby walker.
func (w *captureWalker) call(st lockState, call *ast.CallExpr, isDefer bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	mu := mutexName(sel.X)
	if mu == "" {
		return
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		if !isDefer {
			st[mu] = true
		}
	case "Unlock", "RUnlock":
		// A deferred unlock releases at return: held for the rest of the body.
		if !isDefer {
			delete(st, mu)
		}
	}
}

// checkWrite judges one assignment target: strip the access path to its
// root variable, noting whether any step indexed a slice or array.
func (w *captureWalker) checkWrite(st lockState, lhs ast.Expr) {
	if len(st) > 0 {
		return // lock-guarded
	}
	indexed := false
	e := unparen(lhs)
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			if w.sliceOrArray(x.X) {
				indexed = true
			}
			e = x.X
		case *ast.SelectorExpr:
			if _, ok := w.pkg.Info.Selections[x]; ok {
				e = x.X
				continue
			}
			// Qualified package-level variable: pkg.Var.
			w.judge(st, lhs, w.pkg.Info.Uses[x.Sel], indexed)
			return
		case *ast.Ident:
			if x.Name == "_" {
				return
			}
			obj := w.pkg.Info.Uses[x]
			if obj == nil {
				obj = w.pkg.Info.Defs[x]
			}
			w.judge(st, lhs, obj, indexed)
			return
		default:
			return // computed base (call result, type assertion): not tracked
		}
	}
}

// judge reports an unprotected write to a captured root variable.
func (w *captureWalker) judge(st lockState, lhs ast.Expr, obj types.Object, indexed bool) {
	v, ok := obj.(*types.Var)
	if !ok || w.inside[v] || indexed {
		return
	}
	w.r.Report(w.pkg, lhs.Pos(), "capturesafe",
		"captured variable %s is written in a %s without an index-landed slot, held lock or atomic; concurrent workers race on it (land it in a per-index slot, guard it, or waive with //bulklint:allow capturesafe <why>)",
		v.Name(), w.where)
}

// sliceOrArray reports whether an indexed expression's base is a slice,
// array or pointer-to-array — the per-slot landing shapes. A map index is
// not one: concurrent map writes fault at runtime.
func (w *captureWalker) sliceOrArray(e ast.Expr) bool {
	tv, ok := w.pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type.Underlying()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem().Underlying()
	}
	switch t.(type) {
	case *types.Slice, *types.Array:
		return true
	}
	return false
}
