package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file implements the snapstate rule: a static field-coverage proof
// for the Reset methods the model checker's pooled runners rest on. A
// struct annotated `//bulklint:snapstate` declares "every field of this
// struct is run state a reset must rewrite"; the struct's reset methods
// are declared with `//bulklint:captures reset [TypeName ...]` (with no
// type names the annotation covers the method's receiver type). The rule
// then checks, per (struct, reset method), that every non-ignored field is
// referenced — read or written, directly or inside a statically-resolved
// callee reachable through the module call graph — somewhere in the
// method. Adding a field to tm.System without touching its Reset becomes a
// build-gate failure, not a latent divergence a differential test may or
// may not hit. Embedded fields are not listed: a run-state value struct
// embedded whole (procRun, taskRun) is written whole.
//
// Whether a referenced field is returned to its just-built value is not
// checked here: TestResetMatchesFreshBuild in internal/check compares a
// reset system with a fresh one at run time. The rule covers what that
// test cannot see, a field that happens to hold its initial value at
// every tick boundary the test resets at.
//
// `//bulklint:snapstate-ignore <field> <reason>` inside the struct
// declaration waives one field; the waiver flows through the stalewaiver
// audit, so an ignore whose field is in fact fully covered is itself a
// finding.

// captureKinds are the recognized //bulklint:captures kinds.
var captureKinds = map[string]bool{
	"reset": true,
}

// snapField is one field of an annotated struct.
type snapField struct {
	name   string
	ignore *directive // //bulklint:snapstate-ignore, nil if none
}

// capMethod is one //bulklint:captures entry attached to a struct.
type capMethod struct {
	kind string
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
}

// snapRecord is one //bulklint:snapstate struct with its reset methods.
type snapRecord struct {
	pkg     *Package
	obj     *types.TypeName
	pos     token.Pos
	fields  []*snapField
	byName  map[string]*snapField
	methods []*capMethod
}

// bodyScan is the set of annotated-struct fields one function body
// references, per struct.
type bodyScan map[*types.TypeName]map[string]bool

func analyzerSnapState() *Analyzer {
	return &Analyzer{
		Name: "snapstate",
		Doc:  "snapstate struct field unreferenced in a captures method",
		Run: func(pkgs []*Package, r *Reporter) {
			records, index := collectSnapStructs(pkgs, r)
			if len(records) == 0 {
				return
			}
			collectCaptureMethods(pkgs, index, r)
			cg := r.callGraph(pkgs)
			scans := map[*types.Func]bodyScan{}
			for _, rec := range records {
				if len(rec.methods) == 0 {
					r.Report(rec.pkg, rec.pos, "snapstate",
						"struct %s is annotated //bulklint:snapstate but no method carries a //bulklint:captures annotation covering it",
						rec.obj.Name())
					continue
				}
				for _, m := range rec.methods {
					checkCoverage(rec, m, cg, index, scans, r)
				}
			}
		},
	}
}

// collectSnapStructs finds every annotated struct and its per-field ignore
// directives.
func collectSnapStructs(pkgs []*Package, r *Reporter) ([]*snapRecord, map[*types.TypeName]*snapRecord) {
	var records []*snapRecord
	index := map[*types.TypeName]*snapRecord{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					if rec := buildSnapRecord(pkg, gd, ts, st, r); rec != nil {
						records = append(records, rec)
						index[rec.obj] = rec
					}
				}
			}
		}
	}
	return records, index
}

// buildSnapRecord returns the record for one struct declaration, or nil
// when it carries no snapstate annotation.
func buildSnapRecord(pkg *Package, gd *ast.GenDecl, ts *ast.TypeSpec, st *ast.StructType, r *Reporter) *snapRecord {
	file := sharedFset.Position(ts.Name.Pos()).Filename
	start := sharedFset.Position(gd.Pos()).Line
	if gd.Doc != nil {
		start = sharedFset.Position(gd.Doc.Pos()).Line
	}
	if ts.Doc != nil {
		if l := sharedFset.Position(ts.Doc.Pos()).Line; l < start {
			start = l
		}
	}
	nameLine := sharedFset.Position(ts.Name.Pos()).Line
	ann := directiveInRange(pkg, file, start, nameLine, "snapstate")
	if ann == nil {
		return nil
	}
	ann.used = true
	tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
	if !ok {
		return nil
	}
	rec := &snapRecord{pkg: pkg, obj: tn, pos: ts.Name.Pos(), byName: map[string]*snapField{}}
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if _, ok := pkg.Info.Defs[name].(*types.Var); !ok {
				continue
			}
			sf := &snapField{name: name.Name}
			rec.fields = append(rec.fields, sf)
			rec.byName[sf.name] = sf
		}
	}
	endLine := sharedFset.Position(st.End()).Line
	for line := start; line <= endLine; line++ {
		for _, d := range pkg.directives[file][line] {
			if d.name != "snapstate-ignore" {
				continue
			}
			fld, reason, _ := strings.Cut(d.arg, " ")
			if fld == "" || strings.TrimSpace(reason) == "" {
				d.used = true
				r.reportAt(file, d.line, d.col, "snapstate",
					"malformed //bulklint:snapstate-ignore: want <field> <reason>")
				continue
			}
			sf := rec.byName[fld]
			if sf == nil {
				d.used = true
				r.reportAt(file, d.line, d.col, "snapstate",
					"//bulklint:snapstate-ignore names %q, which is not a field of %s", fld, tn.Name())
				continue
			}
			if sf.ignore != nil {
				d.used = true
				r.reportAt(file, d.line, d.col, "snapstate",
					"duplicate //bulklint:snapstate-ignore for field %s.%s", tn.Name(), fld)
				continue
			}
			sf.ignore = d
		}
	}
	return rec
}

// collectCaptureMethods attaches every //bulklint:captures annotation to
// the records it names.
func collectCaptureMethods(pkgs []*Package, index map[*types.TypeName]*snapRecord, r *Reporter) {
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				for _, d := range pkg.funcAnnotationsAll(sharedFset, fd, "captures") {
					attachCapture(pkg, fd, d, index, r)
				}
			}
		}
	}
}

func attachCapture(pkg *Package, fd *ast.FuncDecl, d *directive, index map[*types.TypeName]*snapRecord, r *Reporter) {
	d.used = true
	file := sharedFset.Position(fd.Pos()).Filename
	parts := strings.Fields(d.arg)
	if len(parts) == 0 {
		r.reportAt(file, d.line, d.col, "snapstate",
			"malformed //bulklint:captures: want <kind> [TypeName ...]")
		return
	}
	kind := parts[0]
	if !captureKinds[kind] {
		r.reportAt(file, d.line, d.col, "snapstate",
			"unknown //bulklint:captures kind %q (want reset)", kind)
		return
	}
	fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	fn = fn.Origin()
	if len(parts) == 1 {
		tn := receiverTypeName(fn)
		if tn == nil {
			r.reportAt(file, d.line, d.col, "snapstate",
				"//bulklint:captures with no type names requires a method with a named receiver type")
			return
		}
		rec := index[tn]
		if rec == nil {
			r.reportAt(file, d.line, d.col, "snapstate",
				"receiver type %s of %s is not annotated //bulklint:snapstate", tn.Name(), funcDisplayName(fd))
			return
		}
		rec.methods = append(rec.methods, &capMethod{kind: kind, fn: fn, decl: fd, pkg: pkg})
		return
	}
	for _, name := range parts[1:] {
		obj, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName)
		var rec *snapRecord
		if ok {
			rec = index[obj]
		}
		if rec == nil {
			r.reportAt(file, d.line, d.col, "snapstate",
				"//bulklint:captures names %q, which is not a //bulklint:snapstate struct in package %s", name, pkg.Path)
			continue
		}
		rec.methods = append(rec.methods, &capMethod{kind: kind, fn: fn, decl: fd, pkg: pkg})
	}
}

// receiverTypeName resolves a method's receiver to its named type's origin.
func receiverTypeName(fn *types.Func) *types.TypeName {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return named.Origin().Obj()
}

// checkCoverage verifies one (struct, reset method) pair: every
// non-ignored field referenced in the method's reachable bodies.
func checkCoverage(rec *snapRecord, m *capMethod, cg *callGraph, index map[*types.TypeName]*snapRecord, scans map[*types.Func]bodyScan, r *Reporter) {
	referenced := map[string]bool{}
	for _, node := range reachableNodes(cg, m.fn) {
		bs := scans[node.fn]
		if bs == nil {
			bs = scanFuncBody(node, index)
			scans[node.fn] = bs
		}
		for _, f := range rec.fields {
			if bs[rec.obj][f.name] {
				referenced[f.name] = true
			}
		}
	}
	for _, f := range rec.fields {
		if referenced[f.name] {
			continue
		}
		if f.ignore != nil {
			f.ignore.used = true
			continue
		}
		r.Report(m.pkg, m.decl.Name.Pos(), "snapstate",
			"field %s.%s is not referenced in captures-%s method %s (directly or via static callees); reset it or waive with //bulklint:snapstate-ignore %s <why>",
			rec.obj.Name(), f.name, m.kind, funcDisplayName(m.decl), f.name)
	}
}

// reachableNodes returns the method's static call-graph closure in
// deterministic BFS order (call sites in source order).
func reachableNodes(cg *callGraph, fn *types.Func) []*funcNode {
	start := cg.nodes[fn]
	if start == nil {
		return nil
	}
	visited := map[*types.Func]bool{fn: true}
	queue := []*funcNode{start}
	for i := 0; i < len(queue); i++ {
		for _, cs := range queue[i].calls {
			if visited[cs.callee] {
				continue
			}
			visited[cs.callee] = true
			if node := cg.nodes[cs.callee]; node != nil {
				queue = append(queue, node)
			}
		}
	}
	return queue
}

// scanFuncBody computes one body's referenced fields for every annotated
// struct: field selectors, whole-struct assignments (`*dst = *src`,
// `*o = Out{}`), and composite literals of an annotated type.
func scanFuncBody(node *funcNode, index map[*types.TypeName]*snapRecord) bodyScan {
	s := &bodyScanner{pkg: node.pkg, index: index, out: bodyScan{}}
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if tn, fname := s.resolveField(n); tn != nil {
				s.use(tn, fname)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				s.markWholeStruct(lhs)
			}
		case *ast.CompositeLit:
			s.markComposite(n)
		}
		return true
	})
	return s.out
}

type bodyScanner struct {
	pkg   *Package
	index map[*types.TypeName]*snapRecord
	out   bodyScan
}

// use records one reference to (struct, field).
func (s *bodyScanner) use(tn *types.TypeName, fname string) {
	m := s.out[tn]
	if m == nil {
		m = map[string]bool{}
		s.out[tn] = m
	}
	m[fname] = true
}

// useAll records a reference to every field of an annotated struct.
func (s *bodyScanner) useAll(tn *types.TypeName) {
	for _, f := range s.index[tn].fields {
		s.use(tn, f.name)
	}
}

// resolveField maps a selector to (annotated struct, field name), or nil.
func (s *bodyScanner) resolveField(sel *ast.SelectorExpr) (*types.TypeName, string) {
	selection, ok := s.pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return nil, ""
	}
	tn := namedOriginObj(selection.Recv())
	if tn == nil {
		return nil, ""
	}
	rec := s.index[tn]
	if rec == nil || rec.byName[sel.Sel.Name] == nil {
		return nil, ""
	}
	return tn, sel.Sel.Name
}

// markWholeStruct records a whole-struct write — *dst = *src, or a
// value-typed variable of an annotated struct type assigned whole — as
// referencing every field. A pointer reassignment moves a reference; it
// writes no field.
func (s *bodyScanner) markWholeStruct(lhs ast.Expr) {
	l := unparen(lhs)
	switch l.(type) {
	case *ast.StarExpr, *ast.Ident:
	default:
		return
	}
	tv, ok := s.pkg.Info.Types[l]
	if !ok || tv.Type == nil {
		return
	}
	if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
		return
	}
	if tn := namedOriginObj(tv.Type); tn != nil && s.index[tn] != nil {
		s.useAll(tn)
	}
}

// markComposite treats an annotated-struct composite literal as
// referencing its listed fields — all of them when it is empty (every
// field deliberately zeroed) or unkeyed.
func (s *bodyScanner) markComposite(cl *ast.CompositeLit) {
	tv, ok := s.pkg.Info.Types[cl]
	if !ok || tv.Type == nil {
		return
	}
	tn := namedOriginObj(tv.Type)
	rec := s.index[tn]
	if tn == nil || rec == nil {
		return
	}
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			s.useAll(tn)
			return
		}
		if key, ok := kv.Key.(*ast.Ident); ok && rec.byName[key.Name] != nil {
			s.use(tn, key.Name)
		}
	}
	if len(cl.Elts) == 0 {
		s.useAll(tn)
	}
}

// namedOriginObj unwraps a type to its named origin's TypeName, or nil.
func namedOriginObj(t types.Type) *types.TypeName {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return named.Origin().Obj()
}

// directiveInRange returns the first directive with the given name whose
// line falls in [start, end] of file, or nil.
func directiveInRange(pkg *Package, file string, start, end int, name string) *directive {
	byLine := pkg.directives[file]
	if byLine == nil {
		return nil
	}
	for line := start; line <= end; line++ {
		for _, d := range byLine[line] {
			if d.name == name {
				return d
			}
		}
	}
	return nil
}
