package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// analyzerMapRange flags every `for … range` over a builtin map. Go
// randomizes map iteration order, and a simulator whose runs must replay
// byte for byte from a seed cannot let that order reach its state or
// output. The rule is the one internal/det's package doc states: range
// over det.SortedKeys(m), or carry `//bulklint:ordered <why>` on the loop
// (or the line above) saying why the order cannot escape. It deliberately
// does not try to prove that: a written reason is cheaper to keep honest
// than a flow analysis.
func analyzerMapRange() *Analyzer {
	return &Analyzer{
		Name: "maprange",
		Doc:  "range over a builtin map without det.SortedKeys or an ordered waiver",
		Run: func(pkgs []*Package, r *Reporter) {
			for _, pkg := range pkgs {
				for _, f := range pkg.Files {
					ast.Inspect(f, func(n ast.Node) bool {
						rs, ok := n.(*ast.RangeStmt)
						if !ok {
							return true
						}
						if tv, ok := pkg.Info.Types[rs.X]; ok && tv.Type != nil && coreMapType(tv.Type) != nil {
							r.Report(pkg, rs.For, "maprange",
								"range over a builtin map; its iteration order is random: range det.SortedKeys(m) instead, or waive with //bulklint:ordered <why>")
						}
						return true
					})
				}
			}
		},
	}
}

// coreMapType returns the builtin map type a value of type t ranges as, or
// nil. For a type parameter the core type of its constraint is consulted,
// so det.SortedKeys's `M ~map[K]V` loop is recognized.
func coreMapType(t types.Type) *types.Map {
	if m, ok := t.Underlying().(*types.Map); ok {
		return m
	}
	tp, ok := t.(*types.TypeParam)
	if !ok {
		return nil
	}
	iface, ok := tp.Constraint().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var core *types.Map
	for i := 0; i < iface.NumEmbeddeds(); i++ {
		switch emb := iface.EmbeddedType(i).(type) {
		case *types.Union:
			for j := 0; j < emb.Len(); j++ {
				m, ok := emb.Term(j).Type().Underlying().(*types.Map)
				if !ok {
					return nil
				}
				if core == nil {
					core = m
				}
			}
		default:
			m, ok := emb.Underlying().(*types.Map)
			if !ok {
				return nil
			}
			if core == nil {
				core = m
			}
		}
	}
	return core
}

// analyzerRandSrc flags ambient randomness and wall-clock reads in the
// simulator core. Every workload must be a pure function of its seed, drawn
// from the explicitly-seeded streams in internal/rng; math/rand (whose
// global state is shared and, in v2, auto-seeded) and time.Now would let
// run-to-run variation leak in. Command-line tools (cmd/, examples/) may
// read the clock for wall-time reporting, and internal/rng is the one place
// allowed to own generator state.
func analyzerRandSrc() *Analyzer {
	return &Analyzer{
		Name: "randsrc",
		Doc:  "math/rand or time.Now in deterministic simulator code",
		Run: func(pkgs []*Package, r *Reporter) {
			for _, pkg := range pkgs {
				if !strings.Contains(pkg.Path, "/internal/") || strings.HasSuffix(pkg.Path, "/rng") {
					continue
				}
				for _, f := range pkg.Files {
					for _, imp := range f.Imports {
						p, err := strconv.Unquote(imp.Path.Value)
						if err != nil {
							continue
						}
						if p == "math/rand" || p == "math/rand/v2" {
							r.Report(pkg, imp.Pos(), "randsrc",
								"import of %s in deterministic simulator code; use the seeded streams of internal/rng", p)
						}
					}
					ast.Inspect(f, func(n ast.Node) bool {
						sel, ok := n.(*ast.SelectorExpr)
						if !ok || sel.Sel.Name != "Now" {
							return true
						}
						id, ok := sel.X.(*ast.Ident)
						if !ok {
							return true
						}
						pn, ok := pkg.Info.Uses[id].(*types.PkgName)
						if ok && pn.Imported().Path() == "time" {
							r.Report(pkg, sel.Pos(), "randsrc",
								"time.Now in deterministic simulator code; simulated time comes from sim.Engine")
						}
						return true
					})
				}
			}
		},
	}
}
