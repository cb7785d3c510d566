package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file implements the noalloc rule as a thin client of the effect
// engine (effects.go). A function annotated `//bulklint:noalloc` (in its
// doc comment or on the `func` line) is a hot kernel — signature
// permute/decode/RLE, flatmap probe/insert, cache tag match and occupancy
// updates, commit inner loops — whose zero-allocation property the
// performance claims of PRs 2–3 depend on.
//
// The rule walks the kernel and everything it statically calls over the
// module call graph and reports every effect site carrying the alloc or
// unknown bit: make/new/append, composite literals, closures and go
// statements, string building, builtin-map writes, interface boxing at
// static call sites, fmt calls, calls into non-allowlisted packages, and
// interface-method calls (unresolvable, so unverifiable). The construct
// scanning itself lives in the effect engine; this file only owns the
// kernel discovery, the call-graph traversal, and the waiver pruning.
//
// Calls to panic are exempt (the engine marks them EffPanic, outside the
// noalloc mask): invariant-guard panics are failure paths, and a failing
// run's allocation profile is irrelevant. Calls through func-typed values
// are also exempt — the concrete closure is scanned where it is written,
// on the annotated side.
//
// A cold call site inside a kernel (amortized growth, error paths) is
// waived with `//bulklint:allow noalloc <why>` on the call line; the
// waiver both suppresses findings at that line and prunes traversal into
// the waived callee.

// noallocAllowedPkgs are packages whose functions are known not to
// allocate on any path the kernels use (the effect engine's extern table
// models them as effect-free).
var noallocAllowedPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
	"cmp":         true,
}

// noallocMask selects the effect sites the rule reports: allocating
// constructs and unverifiable (interface-method) call sites.
const noallocMask = EffAlloc | EffUnknown

func analyzerNoalloc() *Analyzer {
	return &Analyzer{
		Name: "noalloc",
		Doc:  "allocation-introducing construct reachable from a //bulklint:noalloc kernel",
		Run: func(pkgs []*Package, r *Reporter) {
			na := &noallocPass{
				eng:      r.effectEngine(pkgs),
				r:        r,
				visited:  map[*types.Func]bool{},
				reported: map[token.Pos]bool{},
			}
			for _, pkg := range pkgs {
				for _, f := range pkg.Files {
					for _, decl := range f.Decls {
						fd, ok := decl.(*ast.FuncDecl)
						if !ok || fd.Body == nil {
							continue
						}
						d := pkg.funcAnnotation(sharedFset, fd, "noalloc")
						if d == nil {
							continue
						}
						d.used = true // the annotation attaches to this kernel
						fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
						if !ok {
							continue
						}
						na.check(fn.Origin(), funcDisplayName(fd))
					}
				}
			}
		},
	}
}

// NoallocKernel identifies one //bulklint:noalloc-annotated function, for
// the dynamic AllocsPerRun cross-check.
type NoallocKernel struct {
	Pkg      string // import path
	Name     string // Type.Method or Func
	Exported bool   // both the function and any receiver type are exported
}

// NoallocKernels lists every annotated kernel in the loaded packages, in
// source order.
func NoallocKernels(pkgs []*Package) []NoallocKernel {
	var out []NoallocKernel
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if pkg.funcAnnotation(sharedFset, fd, "noalloc") == nil {
					continue
				}
				name := funcDisplayName(fd)
				exported := fd.Name.IsExported()
				if recv, _, ok := strings.Cut(name, "."); ok && !ast.IsExported(recv) {
					exported = false
				}
				out = append(out, NoallocKernel{Pkg: pkg.Path, Name: name, Exported: exported})
			}
		}
	}
	return out
}

// noallocPass carries the traversal state. visited and reported are global
// across kernels: a shared callee is visited once, and a construct reached
// from several kernels is reported once.
type noallocPass struct {
	eng      *effectEngine
	r        *Reporter
	visited  map[*types.Func]bool
	reported map[token.Pos]bool
}

// check reports fn's masked effect sites and recurses into unwaived
// static callees.
func (na *noallocPass) check(fn *types.Func, root string) {
	if na.visited[fn] {
		return
	}
	na.visited[fn] = true
	fe := na.eng.fns[fn]
	if fe == nil {
		return // no body in this module (external); handled at the call site
	}
	for _, s := range fe.sites {
		if s.eff&noallocMask == 0 {
			continue
		}
		if na.reported[s.pos] {
			continue
		}
		na.reported[s.pos] = true
		na.r.Report(fe.node.pkg, s.pos, "noalloc", "%s in noalloc kernel %s", s.msg, root)
	}
	for _, cs := range fe.node.calls {
		if na.eng.fns[cs.callee] == nil {
			continue // external calls judged by the extern table above
		}
		line := sharedFset.Position(cs.call.Pos())
		if fe.node.pkg.useWaiverOnLine(line.Filename, line.Line, "noalloc") {
			continue // cold path (growth, error construction): pruned
		}
		na.check(cs.callee, root)
	}
}
