package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one type-checked, non-test package of the module.
type Package struct {
	// Path is the import path (module path + relative directory).
	Path string
	// Dir is the directory relative to the module root ("" for the root).
	Dir string
	// Files are the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Types and Info are the go/types results.
	Types *types.Package
	Info  *types.Info
	// Mod is the module-level metadata, shared by every package of a load.
	Mod *ModuleMeta

	// directives maps file name -> line -> bulklint directives whose
	// comment ends on that line.
	directives map[string]map[int][]*directive
}

// ModuleMeta carries module-level inputs that are not Go source: the module
// path, the on-disk root (empty for in-memory fixtures), and the layer
// declaration the layerdep rule enforces.
type ModuleMeta struct {
	// Path is the module path from go.mod (or the fixture module path).
	Path string
	// Root is the absolute module root directory, "" for fixtures.
	Root string
	// LayersSrc is the contents of internal/lint/layers.txt, "" when the
	// module declares no layering (the layerdep rule is then inert).
	LayersSrc string
	// LayersPath is the display path findings in the layer file point at.
	LayersPath string
}

// directive is one `//bulklint:<name> <arg...>` comment. used records
// whether the directive suppressed a live finding (or, for annotations,
// attached to a real declaration); the stalewaiver audit reports every
// directive that ends a run unused.
type directive struct {
	name string
	arg  string
	line int
	col  int
	used bool
}

// The shared fset and stdlib importer: the source importer type-checks
// stdlib dependencies from $GOROOT/src and caches them per instance, so
// every load in the process shares one (FileSet is safe for concurrent
// use; loads themselves are serialized by loadMu).
var (
	sharedFset  = token.NewFileSet()
	loadMu      sync.Mutex
	stdImpOnce  sync.Once
	stdImporter types.Importer
)

func stdImp() types.Importer {
	stdImpOnce.Do(func() {
		stdImporter = importer.ForCompiler(sharedFset, "source", nil)
	})
	return stdImporter
}

// moduleImporter resolves intra-module imports from already-checked
// packages and everything else (the standard library) from source.
type moduleImporter struct {
	modPath string
	local   map[string]*types.Package
}

func (m *moduleImporter) Import(p string) (*types.Package, error) {
	if pkg, ok := m.local[p]; ok {
		return pkg, nil
	}
	if p == m.modPath || strings.HasPrefix(p, m.modPath+"/") {
		return nil, fmt.Errorf("lint: intra-module import %q not loaded (cycle?)", p)
	}
	return stdImp().Import(p)
}

// srcFile is one file to load: from disk when src is nil, else from the
// given source text.
type srcFile struct {
	name string // parse/display name (disk path or fixture-relative path)
	src  any    // nil, string or []byte
}

// layersFile is the module-relative path of the layer declaration.
const layersFile = "internal/lint/layers.txt"

// LoadModule loads every non-test package under the module rooted at root.
func LoadModule(root string) ([]*Package, *token.FileSet, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	meta := &ModuleMeta{Path: modPath, Root: root}
	if data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(layersFile))); err == nil {
		meta.LayersSrc = string(data)
		meta.LayersPath = filepath.Join(root, filepath.FromSlash(layersFile))
	}
	dirs := map[string][]srcFile{}
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		if rel == "." {
			rel = ""
		}
		rel = filepath.ToSlash(rel)
		dirs[rel] = append(dirs[rel], srcFile{name: p})
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	pkgs, err := loadPackages(meta, dirs)
	return pkgs, sharedFset, err
}

// LoadFixture type-checks in-memory sources for tests. Keys are paths
// relative to a fictional module root (e.g. "internal/scratch/s.go"); the
// module path is modPath. A "internal/lint/layers.txt" entry is not Go
// source: it becomes the fixture module's layer declaration.
func LoadFixture(modPath string, files map[string]string) ([]*Package, *token.FileSet, error) {
	meta := &ModuleMeta{Path: modPath}
	dirs := map[string][]srcFile{}
	for name, src := range files { //bulklint:ordered loadPackages sorts every dir's file list
		if name == layersFile {
			meta.LayersSrc = src
			meta.LayersPath = layersFile
			continue
		}
		dir := path.Dir(name)
		if dir == "." {
			dir = ""
		}
		dirs[dir] = append(dirs[dir], srcFile{name: name, src: src})
	}
	pkgs, err := loadPackages(meta, dirs)
	return pkgs, sharedFset, err
}

// loadPackages parses, orders and type-checks the given directories.
func loadPackages(meta *ModuleMeta, dirs map[string][]srcFile) ([]*Package, error) {
	modPath := meta.Path
	loadMu.Lock()
	defer loadMu.Unlock()

	type parsed struct {
		pkg   *Package
		files []*ast.File
		deps  []string
	}
	byPath := map[string]*parsed{}
	var order []string

	var dirNames []string
	for d := range dirs { //bulklint:ordered dirNames is sorted before use
		dirNames = append(dirNames, d)
	}
	sort.Strings(dirNames)

	for _, dir := range dirNames {
		files := dirs[dir]
		sort.Slice(files, func(i, j int) bool { return files[i].name < files[j].name })
		p := &Package{
			Dir:        dir,
			Path:       path.Join(modPath, dir),
			Mod:        meta,
			directives: map[string]map[int][]*directive{},
		}
		pp := &parsed{pkg: p}
		pkgName := ""
		for _, f := range files {
			af, err := parser.ParseFile(sharedFset, f.name, f.src, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			if pkgName == "" {
				pkgName = af.Name.Name
			} else if af.Name.Name != pkgName {
				return nil, fmt.Errorf("lint: %s: mixed package names %q and %q", dir, pkgName, af.Name.Name)
			}
			pp.files = append(pp.files, af)
			collectDirectives(p, af)
			for _, imp := range af.Imports {
				ip, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if ip == modPath || strings.HasPrefix(ip, modPath+"/") {
					pp.deps = append(pp.deps, ip)
				}
			}
		}
		p.Files = pp.files
		byPath[p.Path] = pp
		order = append(order, p.Path)
	}

	// Topological order over intra-module imports.
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := map[string]int{}
	var sorted []string
	var visit func(p string) error
	visit = func(p string) error {
		switch state[p] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %s", p)
		}
		state[p] = visiting
		deps := append([]string(nil), byPath[p].deps...)
		sort.Strings(deps)
		for _, d := range deps {
			if _, ok := byPath[d]; !ok {
				return fmt.Errorf("lint: %s imports %s, which is not in the module", p, d)
			}
			if err := visit(d); err != nil {
				return err
			}
		}
		state[p] = done
		sorted = append(sorted, p)
		return nil
	}
	for _, p := range order {
		if err := visit(p); err != nil {
			return nil, err
		}
	}

	imp := &moduleImporter{modPath: modPath, local: map[string]*types.Package{}}
	var out []*Package
	for _, pth := range sorted {
		pp := byPath[pth]
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		conf := types.Config{Importer: imp, FakeImportC: true}
		tpkg, err := conf.Check(pth, sharedFset, pp.files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", pth, err)
		}
		pp.pkg.Types = tpkg
		pp.pkg.Info = info
		imp.local[pth] = tpkg
		out = append(out, pp.pkg)
	}
	return out, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w (run from the module root)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// collectDirectives records every //bulklint: comment in the file, keyed by
// the line the comment appears on.
func collectDirectives(p *Package, f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//bulklint:")
			if !ok {
				continue
			}
			name, arg, _ := strings.Cut(text, " ")
			pos := sharedFset.Position(c.Pos())
			byLine := p.directives[pos.Filename]
			if byLine == nil {
				byLine = map[int][]*directive{}
				p.directives[pos.Filename] = byLine
			}
			byLine[pos.Line] = append(byLine[pos.Line],
				&directive{name: name, arg: strings.TrimSpace(arg), line: pos.Line, col: pos.Column})
		}
	}
}

// waiverAt returns the directive that waives a finding of rule at
// file:line (same line or the line directly above), or nil.
func (p *Package) waiverAt(file string, line int, rule string) *directive {
	byLine := p.directives[file]
	if byLine == nil {
		return nil
	}
	for _, l := range []int{line, line - 1} {
		for _, d := range byLine[l] {
			if directiveWaives(d, rule) {
				return d
			}
		}
	}
	return nil
}

// useWaiverOnLine marks the waiver for rule on exactly file:line used
// without reporting anything, and reports whether one exists. The noalloc
// analysis uses it to prune traversal into waived call sites; unlike
// finding suppression it does not look at the line above, so a waiver
// there cannot accidentally swallow the next line's call.
func (p *Package) useWaiverOnLine(file string, line int, rule string) bool {
	for _, d := range p.directives[file][line] {
		if directiveWaives(d, rule) {
			d.used = true
			return true
		}
	}
	return false
}

// directiveWaives reports whether directive d waives rule.
func directiveWaives(d *directive, rule string) bool {
	switch d.name {
	case "ordered":
		return rule == "maprange"
	case "invariant":
		return rule == "nakedpanic"
	case "locked":
		return rule == "guardedby"
	case "allow":
		first, _, _ := strings.Cut(d.arg, " ")
		return first == rule
	}
	return false
}

// funcDirective returns the first directive with the given name in the
// function's doc comment or anywhere within its body span, or nil.
func (p *Package) funcDirective(fset *token.FileSet, fd *ast.FuncDecl, name string) *directive {
	file := fset.Position(fd.Pos()).Filename
	byLine := p.directives[file]
	if byLine == nil {
		return nil
	}
	start := fset.Position(fd.Pos()).Line
	if fd.Doc != nil {
		start = fset.Position(fd.Doc.Pos()).Line
	}
	end := fset.Position(fd.End()).Line
	for line := start; line <= end; line++ {
		for _, d := range byLine[line] {
			if d.name == name {
				return d
			}
		}
	}
	return nil
}

// funcAnnotation returns a directive with the given name attached to the
// function declaration itself: on a doc-comment line or the `func` line,
// not inside the body. Used for //bulklint:noalloc.
func (p *Package) funcAnnotation(fset *token.FileSet, fd *ast.FuncDecl, name string) *directive {
	file := fset.Position(fd.Pos()).Filename
	byLine := p.directives[file]
	if byLine == nil {
		return nil
	}
	start := fset.Position(fd.Pos()).Line
	if fd.Doc != nil {
		start = fset.Position(fd.Doc.Pos()).Line
	}
	for line := start; line <= fset.Position(fd.Pos()).Line; line++ {
		for _, d := range byLine[line] {
			if d.name == name {
				return d
			}
		}
	}
	return nil
}
