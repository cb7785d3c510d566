// Package lint implements bulklint, the project's static-analysis suite.
//
// The simulator's experimental claims rest on properties nothing in the
// compiler enforces: determinism (identical seeds must produce byte-identical
// runs, so map-iteration order and ambient randomness must never reach
// simulator state), lock discipline (shared mutable state is touched only
// under its lock), the purity of the replay oracles and scheduler hooks,
// and the zero-allocation contract of the signature/flatmap/cache hot
// kernels.
// bulklint parses and type-checks every package in the module using only
// the Go standard library, builds a module-wide static call graph, and runs
// a suite of analyzers — some per-node pattern matches, some flow- and
// call-graph-sensitive — over the result. Each finding is reported as
// `file:line: [rule] message`.
//
// Each rule is kept because some fault in cmd/faultmatrix's matrix is
// caught by it and by no other guard; a guard another guard dominates is
// deleted, and faultmatrix fails while one rule is dominated. Rules:
//
//   - maprange:   a `for … range` over a builtin map. Range over
//     det.SortedKeys(m) instead, or waive with `//bulklint:ordered <why>`.
//   - randsrc:    imports of math/rand (v1 or v2) or calls to time.Now
//     under internal/, outside internal/rng. Workloads must draw all
//     randomness from the seeded internal/rng streams.
//   - guardedby:  interprocedural lockset analysis for fields annotated
//     `//bulklint:guardedby <mu>`. An access is reported unless the named
//     mutex is held on every path reaching it — acquired earlier in the
//     function, or held at entry by every static caller. Waive a whole
//     function with `//bulklint:locked <why>` when the lock is provided
//     in a way the analysis cannot see.
//   - droppederr: a call statement (including go/defer) whose error result
//     is silently discarded.
//   - nakedpanic: a panic outside a Must*-style constructor. Waive with
//     `//bulklint:invariant <why>` for genuine internal-invariant guards.
//   - noalloc:    a function annotated `//bulklint:noalloc` (and everything
//     it statically calls) must not contain allocation-introducing
//     constructs: make/new, composite literals, append, closures, string
//     concatenation or conversion, builtin-map writes, interface boxing,
//     fmt, go statements, or calls into non-allowlisted packages. Built on
//     the effect engine (effects.go). Waive a cold call site with
//     `//bulklint:allow noalloc <why>`.
//   - purehook:   every sim.Scheduler implementation and every function
//     annotated `//bulklint:purehook` (the replay oracles) must infer
//     effect-free-except-reads on the effect lattice — alloc, panic and
//     receiver mutation allowed; io, nondeterminism, global writes,
//     locks, goroutines, channels and unverifiable calls forbidden.
//     Schedule replay is a verified property, not a convention.
//   - layerdep:   the package-layer DAG declared in
//     internal/lint/layers.txt is enforced against actual imports; an
//     intra-module import must target a strictly lower layer.
//   - capturesafe: a variable captured by a worker closure (par.Each /
//     par.ForEach bodies, `go` statements) and written there must land
//     in a slice/array index slot, under a held lock, or through
//     typed-atomic calls; anything else is a statically detected data
//     race. Pointer-style sync/atomic calls are findings anywhere:
//     typed atomics cannot mix atomic and plain access. Waive with
//     `//bulklint:allow capturesafe <why>`.
//   - stalewaiver: every //bulklint: directive must earn its keep — a
//     waiver that suppresses no live finding of its rule, an annotation
//     attached to nothing, or a directive naming an unknown rule is
//     itself reported. Stale-waiver findings cannot be waived.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Finding is one diagnostic.
type Finding struct {
	File string
	Line int
	Col  int
	Rule string
	Msg  string
}

// String renders the canonical `file:line: [rule] message` form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Rule, f.Msg)
}

// Analyzer is one named rule run over the whole loaded module.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pkgs []*Package, r *Reporter)
}

// Analyzers returns every rule in execution order. stalewaiver must run
// last: it audits the waiver-usage marks left by the other analyzers.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerMapRange(),
		analyzerRandSrc(),
		analyzerGuardedBy(),
		analyzerDroppedErr(),
		analyzerNakedPanic(),
		analyzerNoalloc(),
		analyzerPureHook(),
		analyzerLayerDep(),
		analyzerCaptureSafe(),
		analyzerStaleWaiver(),
	}
}

// AnalyzerNames returns the known rule names in order.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// Reporter collects findings, applying waiver comments. It also caches
// the per-run call graph and effect engine, which guardedby, noalloc and
// purehook share.
type Reporter struct {
	fset     *token.FileSet
	findings []Finding

	cg  *callGraph
	eff *effectEngine
}

// callGraph returns the run's shared module call graph, building it on
// first use.
func (r *Reporter) callGraph(pkgs []*Package) *callGraph {
	if r.cg == nil {
		r.cg = buildCallGraph(pkgs)
	}
	return r.cg
}

// effectEngine returns the run's shared effect-inference result, building
// it on first use.
func (r *Reporter) effectEngine(pkgs []*Package) *effectEngine {
	if r.eff == nil {
		r.eff = inferEffects(pkgs, r.callGraph(pkgs))
	}
	return r.eff
}

// NewReporter returns a reporter resolving positions against fset.
func NewReporter(fset *token.FileSet) *Reporter {
	return &Reporter{fset: fset}
}

// Report files a finding for rule at pos unless the owning package waived it
// there; a suppressing waiver is marked used for the stalewaiver audit.
// pkg may be nil (no waiver lookup — such findings cannot be waived).
func (r *Reporter) Report(pkg *Package, pos token.Pos, rule, format string, args ...any) {
	p := r.fset.Position(pos)
	if pkg != nil {
		if d := pkg.waiverAt(p.Filename, p.Line, rule); d != nil {
			d.used = true
			return
		}
	}
	r.findings = append(r.findings, Finding{
		File: p.Filename,
		Line: p.Line,
		Col:  p.Column,
		Rule: rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// reportAt files a finding at an already-resolved position with no waiver
// lookup. The stalewaiver audit uses it: directives carry file/line/col,
// not token.Pos, and audit findings must not be waivable.
func (r *Reporter) reportAt(file string, line, col int, rule, format string, args ...any) {
	r.findings = append(r.findings, Finding{
		File: file,
		Line: line,
		Col:  col,
		Rule: rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Findings returns the collected findings sorted by file, line, column,
// rule and message — a total order, so output is byte-deterministic
// regardless of analyzer scheduling and package load order.
func (r *Reporter) Findings() []Finding {
	out := append([]Finding(nil), r.findings...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return out
}

// RunAnalyzers runs every analyzer over already-loaded packages and
// returns the sorted findings.
func RunAnalyzers(pkgs []*Package, fset *token.FileSet) []Finding {
	r := NewReporter(fset)
	for _, a := range Analyzers() {
		a.Run(pkgs, r)
	}
	return r.Findings()
}

// funcDisplayName renders a function's name as Type.Method or Func.
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver Map[V]
		t = idx.X
	}
	if idl, ok := t.(*ast.IndexListExpr); ok {
		t = idl.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// unparen strips any number of enclosing parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
