package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// This file implements the interprocedural effect-inference engine the
// purehook and noalloc rules are built on. Every function declared in the
// module gets a summary in a flat bitset lattice:
//
//	alloc        heap allocation (make/new/append, literals, closures,
//	             boxing, string building, calls into allocating packages)
//	io           output or input (fmt printing, os/io/bufio/log, builtin
//	             print/println)
//	nondet       a nondeterminism source: time.Now or math/rand (builtin
//	             map iteration order is the maprange rule's job)
//	globalwrite  a store to package-level state
//	lock         sync package use (mutexes, wait groups, once)
//	spawn        a go statement
//	chan         channel send/receive/close/select
//	panic        an explicit panic call
//	unknown      an unverifiable construct: an interface-method call, or a
//	             call into a package the extern table does not model
//
// Local effects are collected by a single construct scan per body (closure
// bodies are attributed to the enclosing declaration; panic arguments are
// failure paths and are not scanned; calls through func-typed values are
// exempt — the concrete closure is scanned where it is written). Calls
// with static module-local callees contribute nothing locally: a bounded
// fixpoint over the module call graph unions every callee summary into its
// callers, so the summary is the effect closure over all statically
// reachable code. The lattice is finite and the transfer is monotone
// (bits only turn on), so the fixpoint needs at most one round per
// call-graph SCC edge; the 64-round bound is a safety net that degrades
// to `unknown` instead of looping.
//
// Everything here is deterministic: functions are iterated in load order
// (sorted directories, sorted files, source order), call sites in source
// order, and witnesses are first-writer-wins under that order — so a
// purehook finding cites the same witness on every run.

// Effect is a bitset of inferred function effects.
type Effect uint16

const (
	// EffAlloc marks heap allocation.
	EffAlloc Effect = 1 << iota
	// EffIO marks input/output.
	EffIO
	// EffNondet marks a nondeterminism source (time, rand).
	EffNondet
	// EffGlobalWrite marks a store to package-level state.
	EffGlobalWrite
	// EffLock marks lock acquisition/release (any sync package use).
	EffLock
	// EffSpawn marks goroutine creation.
	EffSpawn
	// EffChan marks channel operations.
	EffChan
	// EffPanic marks an explicit panic.
	EffPanic
	// EffUnknown marks a construct whose effects cannot be verified.
	EffUnknown
)

// effectNames lists every bit in canonical report order.
var effectNames = []struct {
	bit  Effect
	name string
}{
	{EffAlloc, "alloc"},
	{EffIO, "io"},
	{EffNondet, "nondet"},
	{EffGlobalWrite, "globalwrite"},
	{EffLock, "lock"},
	{EffSpawn, "spawn"},
	{EffChan, "chan"},
	{EffPanic, "panic"},
	{EffUnknown, "unknown"},
}

// String renders the bitset in canonical order; the bottom element is
// "pure".
func (e Effect) String() string {
	if e == 0 {
		return "pure"
	}
	var parts []string
	for _, n := range effectNames {
		if e&n.bit != 0 {
			parts = append(parts, n.name)
		}
	}
	return strings.Join(parts, ",")
}

// effectSite is one local effect-introducing construct. msg carries the
// human-readable description; for allocation sites it is exactly the
// message the noalloc rule reports.
type effectSite struct {
	pos token.Pos
	eff Effect
	msg string
}

// funcEffects is one function's analysis state.
type funcEffects struct {
	node    *funcNode
	sites   []effectSite // local constructs, in source order
	local   Effect       // union of site bits
	summary Effect       // local | statically reachable callee summaries
	// witness maps each summary bit to the first explanation that set it:
	// a local construct message, or "via call to F (line N)".
	witness map[Effect]string
}

// effectEngine holds the module-wide inference result.
type effectEngine struct {
	cg    *callGraph
	order []*types.Func // deterministic declaration order
	fns   map[*types.Func]*funcEffects
}

// effectFixpointRounds bounds the summary propagation. The lattice height
// is 9 bits per function, so real modules converge in a handful of rounds;
// hitting the bound marks every function unknown rather than looping.
const effectFixpointRounds = 64

// inferEffects runs the engine over already-loaded packages.
func inferEffects(pkgs []*Package, cg *callGraph) *effectEngine {
	eng := &effectEngine{cg: cg, fns: map[*types.Func]*funcEffects{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := cg.nodes[fn.Origin()]
				if node == nil {
					continue
				}
				fe := &funcEffects{node: node, witness: map[Effect]string{}}
				fe.sites = scanEffectSites(pkg, fd, cg)
				for _, s := range fe.sites {
					fe.local |= s.eff
					line := sharedFset.Position(s.pos).Line
					addWitness(fe, s.eff, s.msg+lineSuffix(line))
				}
				fe.summary = fe.local
				eng.order = append(eng.order, fn.Origin())
				eng.fns[fn.Origin()] = fe
			}
		}
	}

	stable := false
	for round := 0; round < effectFixpointRounds && !stable; round++ {
		stable = true
		for _, fn := range eng.order {
			fe := eng.fns[fn]
			for _, cs := range fe.node.calls {
				callee := eng.fns[cs.callee]
				if callee == nil {
					continue // external or bodyless: judged at the call site
				}
				add := callee.summary &^ fe.summary
				if add == 0 {
					continue
				}
				fe.summary |= add
				line := sharedFset.Position(cs.call.Pos()).Line
				addWitness(fe, add, "via call to "+cs.callee.FullName()+lineSuffix(line))
				stable = false
			}
		}
	}
	if !stable {
		for _, fn := range eng.order {
			fe := eng.fns[fn]
			if fe.summary&EffUnknown == 0 {
				fe.summary |= EffUnknown
				addWitness(fe, EffUnknown, "effect fixpoint hit its round bound")
			}
		}
	}
	return eng
}

// addWitness records msg as the explanation for every bit of eff that does
// not have one yet.
func addWitness(fe *funcEffects, eff Effect, msg string) {
	for _, n := range effectNames {
		if eff&n.bit == 0 {
			continue
		}
		if _, ok := fe.witness[n.bit]; !ok {
			fe.witness[n.bit] = msg
		}
	}
}

// scanEffectSites collects every local effect-introducing construct of one
// declared body, in source order. It is the single construct scanner the
// noalloc rule and the effect engine share, so the allocation messages
// here are the exact strings noalloc reports.
func scanEffectSites(pkg *Package, fd *ast.FuncDecl, cg *callGraph) []effectSite {
	var sites []effectSite
	add := func(pos token.Pos, eff Effect, msg string) {
		sites = append(sites, effectSite{pos: pos, eff: eff, msg: msg})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			return scanCallEffects(pkg, cg, n, add)
		case *ast.CompositeLit:
			tv, ok := pkg.Info.Types[n]
			if ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					add(n.Pos(), EffAlloc, "slice/map literal allocates")
					return true
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := unparen(n.X).(*ast.CompositeLit); ok {
					add(n.Pos(), EffAlloc, "&composite literal escapes to the heap")
				}
			}
			if n.Op == token.ARROW {
				add(n.Pos(), EffChan, "receives from a channel")
			}
		case *ast.FuncLit:
			// Descend anyway: the closure body's effects belong to this frame.
			add(n.Pos(), EffAlloc, "closure allocates")
		case *ast.GoStmt:
			add(n.Pos(), EffSpawn|EffAlloc, "go statement allocates")
		case *ast.SendStmt:
			add(n.Pos(), EffChan, "sends on a channel")
		case *ast.SelectStmt:
			add(n.Pos(), EffChan, "selects on channel operations")
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[n.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					add(n.Pos(), EffChan, "receives from a channel")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(pkg, n.X) {
				add(n.Pos(), EffAlloc, "string concatenation allocates")
			}
		case *ast.IncDecStmt:
			if root := rootIdent(pkg, n.X); root != nil && isPkgLevel(root) {
				add(n.X.Pos(), EffGlobalWrite, "writes package-level state")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(pkg, n.Lhs[0]) {
				add(n.Pos(), EffAlloc, "string concatenation allocates")
			}
			if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
				for _, l := range n.Lhs {
					if idx, ok := unparen(l).(*ast.IndexExpr); ok {
						tv, ok := pkg.Info.Types[idx.X]
						if ok && tv.Type != nil {
							if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
								add(l.Pos(), EffAlloc, "builtin-map write may allocate")
							}
						}
					}
				}
			}
			if n.Tok != token.DEFINE {
				for _, l := range n.Lhs {
					if root := rootIdent(pkg, unparen(l)); root != nil && isPkgLevel(root) {
						add(l.Pos(), EffGlobalWrite, "writes package-level state")
					}
				}
			}
		}
		return true
	})
	return sites
}

// scanCallEffects judges one call expression; the return value tells
// ast.Inspect whether to descend into the arguments (panic arguments are
// failure paths and are exempt, everything else descends).
func scanCallEffects(pkg *Package, cg *callGraph, call *ast.CallExpr, add func(token.Pos, Effect, string)) bool {
	if id, ok := unparen(call.Fun).(*ast.Ident); ok && isBuiltin(pkg, id) {
		switch id.Name {
		case "make":
			add(call.Pos(), EffAlloc, "make allocates")
		case "new":
			add(call.Pos(), EffAlloc, "new allocates")
		case "append":
			add(call.Pos(), EffAlloc, "append may grow its backing array")
		case "close":
			add(call.Pos(), EffChan, "closes a channel")
		case "print", "println":
			add(call.Pos(), EffIO, "writes via builtin "+id.Name)
		case "panic":
			add(call.Pos(), EffPanic, "panics")
			return false // failure path: the panic argument is exempt too
		}
		return true
	}
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion. string <-> []byte/[]rune copies; everything else is free.
		if len(call.Args) == 1 && stringSliceConversion(pkg, tv.Type, call.Args[0]) {
			add(call.Pos(), EffAlloc, "string conversion allocates")
		}
		return true
	}
	callee := staticCallee(pkg, call)
	if callee == nil {
		// Dynamic call: through a func value (the concrete closure is
		// scanned where it is written) or an interface method (unverifiable).
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				add(call.Pos(), EffUnknown, "interface method call cannot be verified")
			}
		}
		return true
	}
	if callee.Pkg() != nil && cg.nodes[callee] == nil {
		// External (or bodyless) callee: judged here by the extern table.
		if eff, msg := externEffects(callee); eff != 0 {
			add(call.Pos(), eff, msg)
		}
		return true
	}
	// Module-local static call: the fixpoint propagates the callee summary;
	// here only the boxing of arguments at this call site is judged.
	scanBoxing(pkg, call, callee, add)
	return true
}

// externEffects models calls into packages outside the module. The
// returned message is exactly the allocation message the noalloc rule
// reported historically, so the rebuilt rule stays byte-compatible.
func externEffects(callee *types.Func) (Effect, string) {
	path, name := callee.Pkg().Path(), callee.Name()
	dflt := "call into " + path + "." + name + " may allocate"
	if noallocAllowedPkgs[path] {
		return 0, "" // math, math/bits, sync/atomic, cmp: pure and alloc-free
	}
	switch path {
	case "fmt":
		if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") {
			return EffIO | EffAlloc, "fmt call allocates"
		}
		return EffAlloc, "fmt call allocates"
	case "errors":
		if name == "New" {
			return EffAlloc, "errors.New allocates"
		}
		return EffAlloc, dflt
	case "slices":
		if strings.HasPrefix(name, "Sort") {
			return 0, "" // in-place sorts; allowed
		}
		return EffAlloc, dflt
	case "sort", "strings", "strconv", "bytes", "unicode", "unicode/utf8",
		"path", "path/filepath":
		return EffAlloc, dflt
	case "time":
		switch name {
		case "Now", "Since", "Until":
			return EffNondet | EffAlloc, dflt
		}
		return EffAlloc, dflt
	case "math/rand", "math/rand/v2":
		return EffNondet | EffAlloc, dflt
	case "os", "io", "bufio", "log":
		return EffIO | EffAlloc, dflt
	case "sync":
		return EffLock | EffAlloc, dflt
	}
	return EffAlloc | EffUnknown, dflt
}

// scanBoxing reports concrete non-pointer arguments passed to interface
// parameters of a static module-local callee — the interface conversion
// allocates.
func scanBoxing(pkg *Package, call *ast.CallExpr, callee *types.Func, add func(token.Pos, Effect, string)) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if call.Ellipsis.IsValid() && i == len(call.Args)-1 {
			continue // f(xs...) passes the slice through unboxed
		}
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		} else if i < params.Len() {
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isTP := pt.(*types.TypeParam); isTP {
			continue // generic parameter: the argument is passed concretely, not boxed
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at, ok := pkg.Info.Types[arg]
		if !ok || at.Type == nil {
			continue
		}
		if _, argIface := at.Type.Underlying().(*types.Interface); argIface {
			continue // interface-to-interface: no boxing
		}
		if _, isPtr := at.Type.Underlying().(*types.Pointer); isPtr {
			continue // pointers fit in the interface word
		}
		if at.Value != nil && at.IsNil() {
			continue
		}
		add(arg.Pos(), EffAlloc, "interface conversion may allocate")
	}
}

func isStringExpr(pkg *Package, x ast.Expr) bool {
	tv, ok := pkg.Info.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// stringSliceConversion reports whether converting arg to target copies
// string/slice contents.
func stringSliceConversion(pkg *Package, target types.Type, arg ast.Expr) bool {
	at, ok := pkg.Info.Types[arg]
	if !ok || at.Type == nil {
		return false
	}
	tStr := isStringType(target)
	aStr := isStringType(at.Type)
	_, tSlice := target.Underlying().(*types.Slice)
	_, aSlice := at.Type.Underlying().(*types.Slice)
	return (tStr && aSlice) || (tSlice && aStr)
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func lineSuffix(line int) string {
	return " (line " + strconv.Itoa(line) + ")"
}

// isPkgLevel reports whether obj is a package-level variable.
func isPkgLevel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// rootIdent unwraps selector/index/slice/deref/paren chains to the root
// identifier's object.
func rootIdent(pkg *Package, expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.Ident:
			if o := pkg.Info.Uses[e]; o != nil {
				return o
			}
			return pkg.Info.Defs[e]
		default:
			return nil
		}
	}
}

// isBuiltin reports whether the identifier resolves to a Go builtin.
func isBuiltin(pkg *Package, id *ast.Ident) bool {
	_, ok := pkg.Info.Uses[id].(*types.Builtin)
	return ok
}
