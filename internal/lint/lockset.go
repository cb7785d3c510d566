package lint

import (
	"go/ast"
	"go/types"
)

// This file implements the guardedby rule as a flow-sensitive,
// interprocedural lockset analysis. PR 1's version only asked "does this
// function call mu.Lock anywhere?" — it accepted an access before the
// Lock and rejected helpers whose callers hold the lock. The upgrade
// tracks the set of mutexes that must be held at each program point
// (fork at branches, intersect at joins, walk loop bodies twice) and, for
// functions that touch guarded fields without locking themselves, infers
// the lockset held at entry as the intersection of the locksets at every
// static call site — iterated to a fixpoint so helper-of-helper chains
// resolve. Mutexes are identified by their field/variable name (the last
// selector component before .Lock), matching the `//bulklint:guardedby
// <mu>` vocabulary.
//
// Approximations: `defer mu.Unlock()` is treated as "held to the end of
// the function"; closure bodies are skipped (a closure runs at an unknown
// point, so neither its locks nor its accesses are attributed to the
// enclosing frame); dynamic calls contribute no call-site lockset.

// lockState is the set of mutex names that must be held.
type lockState map[string]bool

func analyzerGuardedBy() *Analyzer {
	return &Analyzer{
		Name: "guardedby",
		Doc:  "guarded field accessed on a path where its mutex is not held",
		Run: func(pkgs []*Package, r *Reporter) {
			guarded := map[types.Object]string{}
			for _, pkg := range pkgs {
				collectGuarded(pkg, guarded)
			}
			if len(guarded) == 0 {
				return
			}
			cg := r.callGraph(pkgs)
			ls := &locksetPass{guarded: guarded, cg: cg, entry: map[*types.Func]lockState{}}

			// Fixpoint over entry locksets: each round walks every body with
			// the current entry assumption and records the lockset at every
			// static call site; a callee's entry set is the intersection over
			// its call sites. Entry sets only grow, so this terminates.
			for range [8]int{} {
				ls.sites = map[*types.Func][]lockState{}
				ls.walkAll(pkgs, nil)
				if !ls.updateEntries() {
					break
				}
			}
			ls.walkAll(pkgs, r)
		},
	}
}

// locksetPass carries the interprocedural state.
type locksetPass struct {
	guarded map[types.Object]string
	cg      *callGraph
	entry   map[*types.Func]lockState   // inferred held-at-entry per function
	sites   map[*types.Func][]lockState // locksets observed at call sites
}

// walkAll runs the flow walk over every declared body. With r == nil it
// only collects call-site locksets; with r != nil it reports violations.
func (ls *locksetPass) walkAll(pkgs []*Package, r *Reporter) {
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				ls.walkFunc(pkg, fd, fn.Origin(), r)
			}
		}
	}
}

func (ls *locksetPass) walkFunc(pkg *Package, fd *ast.FuncDecl, fn *types.Func, r *Reporter) {
	st := lockState{}
	for mu := range ls.entry[fn] { //bulklint:ordered copies a set; the result has no order
		st[mu] = true
	}
	w := &locksetWalker{ls: ls, pkg: pkg, fd: fd, r: r}
	flowWalk(st, fd.Body.List, flowHooks[lockState]{
		fork:  forkLocks,
		merge: mergeLocks,
		stmt:  w.stmt,
	})
}

type locksetWalker struct {
	ls  *locksetPass
	pkg *Package
	fd  *ast.FuncDecl
	r   *Reporter
}

func forkLocks(st lockState) lockState {
	out := make(lockState, len(st))
	for mu := range st { //bulklint:ordered copies a set; the result has no order
		out[mu] = true
	}
	return out
}

// mergeLocks is the must-join: a mutex is held after a join only if it is
// held on every incoming path.
func mergeLocks(base lockState, branches []lockState, mayFallThrough bool) lockState {
	out := lockState{}
	paths := branches
	if mayFallThrough || len(branches) == 0 {
		paths = append(paths, base)
	}
	for mu := range paths[0] { //bulklint:ordered intersects sets; the result has no order
		held := true
		for _, p := range paths[1:] {
			if !p[mu] {
				held = false
				break
			}
		}
		if held {
			out[mu] = true
		}
	}
	return out
}

// stmt scans one simple statement, in source order, for lock operations,
// guarded-field accesses, and static call sites.
func (w *locksetWalker) stmt(st lockState, s ast.Stmt) {
	_, isDefer := s.(*ast.DeferStmt)
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // runs at an unknown time; not this frame
		case *ast.CallExpr:
			w.call(st, n, isDefer)
		case *ast.SelectorExpr:
			w.access(st, n)
		}
		return true
	})
}

func (w *locksetWalker) call(st lockState, call *ast.CallExpr, isDefer bool) {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if mu := mutexName(sel.X); mu != "" {
			switch sel.Sel.Name {
			case "Lock", "RLock":
				if !isDefer {
					st[mu] = true
				}
				return
			case "Unlock", "RUnlock":
				// A deferred unlock releases at return: the mutex stays held
				// for the rest of the body.
				if !isDefer {
					delete(st, mu)
				}
				return
			}
		}
	}
	if callee := staticCallee(w.pkg, call); callee != nil {
		if _, declared := w.ls.cg.nodes[callee]; declared {
			w.ls.sites[callee] = append(w.ls.sites[callee], forkLocks(st))
		}
	}
}

func (w *locksetWalker) access(st lockState, sel *ast.SelectorExpr) {
	s, ok := w.pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	mu, ok := w.ls.guarded[s.Obj()]
	if !ok || st[mu] {
		return
	}
	if w.r == nil {
		return // collection pass
	}
	if d := w.pkg.funcDirective(sharedFset, w.fd, "locked"); d != nil {
		d.used = true
		return
	}
	w.r.Report(w.pkg, sel.Sel.Pos(), "guardedby",
		"field %s is guarded by %s, which is not held here in %s (nor at entry by every caller); lock %s or annotate the function with //bulklint:locked <why>",
		s.Obj().Name(), mu, funcDisplayName(w.fd), mu)
}

// updateEntries recomputes every function's entry lockset from the call
// sites observed this round; reports whether anything changed.
func (ls *locksetPass) updateEntries() bool {
	changed := false
	for fn, sites := range ls.sites { //bulklint:ordered each function's entry set is computed independently; changed is an OR
		var entry lockState
		for _, site := range sites {
			if entry == nil {
				entry = forkLocks(site)
				continue
			}
			for mu := range entry { //bulklint:ordered intersects sets; the result has no order
				if !site[mu] {
					delete(entry, mu)
				}
			}
		}
		if len(entry) == 0 {
			continue
		}
		cur := ls.entry[fn]
		grow := false
		for mu := range entry { //bulklint:ordered an any-match test; the result has no order
			if !cur[mu] {
				grow = true
				break
			}
		}
		if grow {
			ls.entry[fn] = entry
			changed = true
		}
	}
	return changed
}

// mutexName extracts the mutex's field/variable name from the receiver of
// a .Lock/.Unlock call: the bare identifier or last selector component.
func mutexName(x ast.Expr) string {
	switch x := unparen(x).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

// collectGuarded records every struct field carrying a guardedby directive
// on its own line or the line above (field doc comment), marking the
// directive used: an annotation that attaches to a field is live even
// when every access is correctly locked.
func collectGuarded(pkg *Package, guarded map[types.Object]string) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					obj := pkg.Info.Defs[name]
					if obj == nil {
						continue
					}
					pos := sharedFset.Position(name.Pos())
					if d := guardDirectiveAt(pkg, pos.Filename, pos.Line); d != nil {
						guarded[obj] = d.arg
						d.used = true
					}
				}
			}
			return true
		})
	}
}

// guardDirectiveAt looks for a guardedby directive at line or line-1.
func guardDirectiveAt(pkg *Package, file string, line int) *directive {
	byLine := pkg.directives[file]
	if byLine == nil {
		return nil
	}
	for _, l := range []int{line, line - 1} {
		for _, d := range byLine[l] {
			if d.name == "guardedby" && d.arg != "" {
				return d
			}
		}
	}
	return nil
}
