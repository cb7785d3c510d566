package lint

import (
	"go/ast"
	"go/types"
)

// This file implements the purehook rule: schedule replay is only sound if
// the hooks the model checker drives the runtimes through are effect-free
// beyond reading their inputs, allocating, and mutating their own
// receiver. A scheduler that logs, locks, reads the clock, or touches
// package-level state makes a recorded schedule irreproducible — exactly
// the class of bug the internal/check explorer cannot detect about itself.
//
// Two populations are checked against the effect engine:
//
//   - every named type in the module that implements the sim.Scheduler
//     interface (looked up in the package at internal/sim): each interface
//     method's concrete body must stay inside the allowed effects;
//   - every function annotated `//bulklint:purehook` (the replay oracles —
//     each runtime's oracle method behind Judge and Verify, soundness
//     probes): the annotation is a machine-checked contract, not a comment.
//
// Allowed: alloc (hooks may build state), panic (invariant guards), and
// receiver/local mutation. Forbidden: io, nondet, globalwrite, lock,
// spawn, chan, unknown. Waive a hook the analysis cannot see through with
// `//bulklint:allow purehook <why>` on or above the declaration line.

// purehookForbidden are the effect bits a replay hook must not infer.
const purehookForbidden = EffIO | EffNondet | EffGlobalWrite | EffLock |
	EffSpawn | EffChan | EffUnknown

func analyzerPureHook() *Analyzer {
	return &Analyzer{
		Name: "purehook",
		Doc:  "scheduler hook or replay oracle with effects that break schedule replay",
		Run: func(pkgs []*Package, r *Reporter) {
			eng := r.effectEngine(pkgs)
			checked := map[*types.Func]bool{}

			// Population 1: sim.Scheduler implementations.
			if iface := schedulerInterface(pkgs); iface != nil {
				for _, pkg := range pkgs {
					scope := pkg.Types.Scope()
					for _, name := range scope.Names() { // Names() is sorted
						tn, ok := scope.Lookup(name).(*types.TypeName)
						if !ok || tn.IsAlias() {
							continue
						}
						named, ok := tn.Type().(*types.Named)
						if !ok || types.IsInterface(named) {
							continue
						}
						if !types.Implements(named, iface) &&
							!types.Implements(types.NewPointer(named), iface) {
							continue
						}
						for i := 0; i < iface.NumMethods(); i++ {
							m := iface.Method(i)
							obj, _, _ := types.LookupFieldOrMethod(named, true, m.Pkg(), m.Name())
							fn, ok := obj.(*types.Func)
							if !ok {
								continue
							}
							checkHook(eng, r, fn.Origin(), checked, "implements sim.Scheduler")
						}
					}
				}
			}

			// Population 2: //bulklint:purehook-annotated functions.
			for _, pkg := range pkgs {
				for _, f := range pkg.Files {
					for _, decl := range f.Decls {
						fd, ok := decl.(*ast.FuncDecl)
						if !ok || fd.Body == nil {
							continue
						}
						d := pkg.funcAnnotation(sharedFset, fd, "purehook")
						if d == nil {
							continue
						}
						d.used = true // the annotation attaches to this hook
						fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
						if !ok {
							continue
						}
						checkHook(eng, r, fn.Origin(), checked, "is annotated //bulklint:purehook")
					}
				}
			}
		},
	}
}

// schedulerInterface finds the Scheduler interface declared in the
// module's internal/sim package, or nil (fixtures without one only check
// annotated functions).
func schedulerInterface(pkgs []*Package) *types.Interface {
	for _, pkg := range pkgs {
		if pkg.Dir != "internal/sim" {
			continue
		}
		tn, ok := pkg.Types.Scope().Lookup("Scheduler").(*types.TypeName)
		if !ok {
			continue
		}
		if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
			return iface
		}
	}
	return nil
}

// checkHook reports fn if its inferred summary carries a forbidden bit,
// citing the first forbidden effect's witness.
func checkHook(eng *effectEngine, r *Reporter, fn *types.Func, checked map[*types.Func]bool, why string) {
	if checked[fn] {
		return
	}
	checked[fn] = true
	fe := eng.fns[fn]
	if fe == nil {
		return // declared without a body in this module: nothing to infer
	}
	bad := fe.summary & purehookForbidden
	if bad == 0 {
		return
	}
	var first string
	for _, n := range effectNames {
		if bad&n.bit != 0 {
			first = n.name + ": " + fe.witness[n.bit]
			break
		}
	}
	r.Report(fe.node.pkg, fe.node.decl.Pos(), "purehook",
		"%s %s but infers effects {%s} (%s); replay hooks must be effect-free beyond allocation and receiver mutation — remove the effect or waive with //bulklint:allow purehook <why>",
		funcDisplayName(fe.node.decl), why, bad, first)
}
