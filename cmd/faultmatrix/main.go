// Command faultmatrix checks that every guard the project keeps still
// catches the faults it is kept for. Each row of matrix.txt is one planted
// fault — a small patch to the real tree — listed with the guards expected
// to catch it. A guard is a bulklint rule (lint:<rule>), a Go test
// selection (test:<dir>:<regexp>), or the same selection under the race
// detector (race:<dir>:<regexp>).
//
// faultmatrix copies the module into two temporary directories and
// checks that a clean copy passes every guard. It then plants the rows,
// two at a time (one per copy): it applies a row, runs every guard against
// it, and restores the copy. It prints the guard × row table and exits 1
// when a listed guard misses its row, a row fails to apply or build, the
// clean copy fails a guard, or a bulklint rule is dominated: it catches
// no row that every other guard misses, so internal/lint's keep rule
// says to delete it.
//
// Run it from the module root:
//
//	go run ./cmd/faultmatrix
//
// Table cells: '#' listed and caught, '+' caught but not listed, '.' not
// caught, '-' the guard's test binary does not contain the planted
// package (so the guard cannot see the fault), '!' listed but missed.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"

	"bulk/internal/lint"
	"bulk/internal/par"
)

//go:embed matrix.txt
var matrixSrc string

// row is one planted fault.
type row struct {
	name   string
	guards []string // specs expected to catch the fault
	patch  string   // unified diff against the module root
	files  []string // module-relative paths the patch touches
}

// guard is one column of the table. For a lint guard dir holds the rule
// name.
type guard struct {
	spec, kind, dir, re string
	pkg                 string          // import path of dir
	deps                map[string]bool // import paths in the test binary
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "faultmatrix:", err)
		os.Exit(1)
	}
}

func run() error {
	rows, err := parseMatrix(matrixSrc)
	if err != nil {
		return err
	}
	mod, err := exec.Command("go", "list", "-m").Output()
	if err != nil {
		return fmt.Errorf("go list -m: %v (run from the module root)", err)
	}
	modPath := strings.TrimSpace(string(mod))
	// The guard tests run -trimpath (see goTest), which strips GOROOT from
	// their binaries; tests that load the standard library from source
	// find it in the environment. GOGC=200 trims the collector's share of
	// those type-checking tests.
	goroot, err := exec.Command("go", "env", "GOROOT").Output()
	if err != nil {
		return fmt.Errorf("go env GOROOT: %v", err)
	}
	if err := os.Setenv("GOROOT", strings.TrimSpace(string(goroot))); err != nil {
		return err
	}
	if err := os.Setenv("GOGC", "200"); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "faultmatrix")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(tmp) }()
	// Two copies keep both cores busy: while one row sits in a
	// single-threaded test, the other builds.
	trees := make(chan string, 2)
	for i := range cap(trees) {
		tree := filepath.Join(tmp, fmt.Sprint("tree", i))
		if err := copyTree(".", tree); err != nil {
			return err
		}
		trees <- tree
	}
	tree := <-trees
	guards, err := columns(rows, tree, modPath)
	if err != nil {
		return err
	}
	clean, err := runGuards(guards, tree, "")
	if err != nil {
		return fmt.Errorf("clean tree: %v", err)
	}
	for i, g := range guards {
		if clean[i] == '+' {
			return fmt.Errorf("clean tree fails guard %s", g.spec)
		}
	}
	trees <- tree

	cells := make([][]byte, len(rows))
	err = par.ForEach(len(rows), func(i int) error {
		tree := <-trees
		defer func() { trees <- tree }()
		c, err := plant(rows[i], guards, tree, modPath)
		if err != nil {
			return fmt.Errorf("row %s: %v", rows[i].name, err)
		}
		cells[i] = c
		return nil
	})
	if err != nil {
		return err
	}

	for i, g := range guards {
		fmt.Printf("%3d %s\n", i+1, g.spec)
	}
	fmt.Printf("%-32s", "row")
	for i := range guards {
		fmt.Printf(" %2d", i+1)
	}
	fmt.Println()
	failed := false
	for k, r := range rows {
		fmt.Printf("%-32s", r.name)
		for i, g := range guards {
			c := cells[k][i]
			if slices.Contains(r.guards, g.spec) {
				if c == '+' {
					c = '#'
				} else {
					c = '!'
					failed = true
				}
			}
			fmt.Printf("  %c", c)
		}
		fmt.Println()
	}
	dom := dominated(guards, cells)
	switch {
	case failed:
		return fmt.Errorf("a listed guard missed its row ('!')")
	case len(dom) > 0:
		return fmt.Errorf("no row is caught by %s alone", strings.Join(dom, ", "))
	}
	fmt.Printf("faultmatrix: %d rows, every listed guard caught its row, every rule caught one alone\n", len(rows))
	return nil
}

// dominated returns the specs of the lint columns that catch no row alone:
// each row they catch ('+' in cells) some other column catches too.
func dominated(guards []guard, cells [][]byte) []string {
	var out []string
	for i, g := range guards {
		alone := func(c []byte) bool { return c[i] == '+' && bytes.Count(c, []byte{'+'}) == 1 }
		if g.kind == "lint" && !slices.ContainsFunc(cells, alone) {
			out = append(out, g.spec)
		}
	}
	return out
}

// plant applies r to the tree, runs every guard, and restores the tree.
func plant(r row, guards []guard, tree, modPath string) ([]byte, error) {
	saved := make([][]byte, len(r.files))
	for i, f := range r.files {
		data, err := os.ReadFile(filepath.Join(tree, f))
		if err != nil {
			return nil, err
		}
		saved[i] = data
	}
	defer func() {
		for i, f := range r.files {
			_ = os.WriteFile(filepath.Join(tree, f), saved[i], 0o644)
		}
	}()
	apply := exec.Command("git", "apply", "-")
	apply.Dir = tree
	apply.Stdin = strings.NewReader(r.patch)
	if out, err := apply.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("patch does not apply: %v\n%s", err, out)
	}
	return runGuards(guards, tree, importPath(modPath, path.Dir(r.files[0])))
}

// runGuards runs every guard over the tree and returns one cell per
// guard: '+' caught, '.' not caught, '-' the planted package pkg is not
// in the guard's test binary ("" runs everything). bulklint runs in
// process, concurrently with one `go test` over every test guard and one
// `go test -race` over every race guard.
func runGuards(guards []guard, tree, pkg string) ([]byte, error) {
	cells := make([]byte, len(guards))
	kinds := []string{"lint", "test", "race"}
	err := par.ForEach(len(kinds), func(k int) error {
		var run []int
		for i, g := range guards {
			switch {
			case g.kind != kinds[k]:
			case g.kind != "lint" && pkg != "" && !g.deps[pkg]:
				cells[i] = '-'
			default:
				run = append(run, i)
			}
		}
		if len(run) == 0 {
			return nil
		}
		caught := map[string]bool{}
		if k == 0 {
			pkgs, fset, err := lint.LoadModule(tree)
			if err != nil {
				return err
			}
			for _, f := range lint.RunAnalyzers(pkgs, fset) {
				caught[f.Rule] = true
			}
			for _, i := range run {
				cells[i] = mark(caught[guards[i].dir])
			}
			return nil
		}
		var dirs, res []string
		for _, i := range run {
			dirs = append(dirs, "./"+guards[i].dir)
			res = append(res, guards[i].re)
		}
		failed, err := goTest(tree, kinds[k] == "race", dirs, strings.Join(res, "|"))
		if err != nil {
			return err
		}
		for _, i := range run {
			re := regexp.MustCompile("^(" + guards[i].re + ")$")
			hit := false
			for _, f := range failed {
				hit = hit || f.pkg == guards[i].pkg && re.MatchString(f.test)
			}
			cells[i] = mark(hit)
		}
		return nil
	})
	return cells, err
}

func mark(caught bool) byte {
	if caught {
		return '+'
	}
	return '.'
}

// failure is one failed top-level test.
type failure struct{ pkg, test string }

// goTest runs the selected tests of the packages in dirs and returns the
// top-level tests that failed. A failing run with no failed test (a build
// error) is an error.
func goTest(tree string, race bool, dirs []string, re string) ([]failure, error) {
	// -trimpath lets both tree copies share one build cache.
	args := []string{"test", "-json", "-trimpath", "-vet=off", "-timeout", "2m", "-run", "^(" + re + ")$"}
	if race {
		args = append(args, "-race")
	}
	cmd := exec.Command("go", append(args, dirs...)...)
	cmd.Dir = tree
	out, runErr := cmd.Output()
	var failed []failure
	for _, line := range strings.Split(string(out), "\n") {
		var ev struct{ Action, Package, Test string }
		if json.Unmarshal([]byte(line), &ev) == nil && ev.Action == "fail" && ev.Test != "" {
			name, _, _ := strings.Cut(ev.Test, "/")
			failed = append(failed, failure{ev.Package, name})
		}
	}
	if runErr != nil && len(failed) == 0 {
		return nil, fmt.Errorf("go test %s: %v\n%s", strings.Join(dirs, " "), runErr, out)
	}
	return failed, nil
}

// columns returns every bulklint rule, then every other guard in order of
// first mention, each test guard with its test binary's package set.
func columns(rows []row, tree, modPath string) ([]guard, error) {
	var specs []string
	for _, name := range lint.AnalyzerNames() {
		specs = append(specs, "lint:"+name)
	}
	for _, r := range rows {
		for _, s := range r.guards {
			if !slices.Contains(specs, s) {
				specs = append(specs, s)
			}
		}
	}
	var out []guard
	for _, s := range specs {
		parts := strings.SplitN(s, ":", 3)
		g := guard{spec: s, kind: parts[0], dir: parts[1]}
		switch {
		case g.kind == "lint" && len(parts) == 2:
			if !slices.Contains(lint.AnalyzerNames(), g.dir) {
				return nil, fmt.Errorf("guard %s: no such bulklint rule", s)
			}
		case (g.kind == "test" || g.kind == "race") && len(parts) == 3:
			g.re, g.pkg = parts[2], importPath(modPath, g.dir)
			list := exec.Command("go", "list", "-deps", "-test", "-f", "{{.ImportPath}}", "./"+g.dir)
			list.Dir = tree
			deps, err := list.Output()
			if err != nil {
				return nil, fmt.Errorf("guard %s: go list: %v", s, err)
			}
			g.deps = map[string]bool{}
			for _, p := range strings.Fields(string(deps)) {
				g.deps[p] = true
			}
		default:
			return nil, fmt.Errorf("malformed guard %q (want lint:<rule>, test:<dir>:<regexp> or race:<dir>:<regexp>)", s)
		}
		out = append(out, g)
	}
	return out, nil
}

// parseMatrix reads the rows. A row starts at a "== <name>" line,
// followed by a "guards:" line and then its unified diff. Lines starting
// with '#' outside a diff are comments.
func parseMatrix(src string) ([]row, error) {
	var rows []row
	var cur *row
	for _, line := range strings.SplitAfter(src, "\n") {
		text := strings.TrimRight(line, "\n")
		if name, ok := strings.CutPrefix(text, "== "); ok {
			rows = append(rows, row{name: name})
			cur = &rows[len(rows)-1]
			continue
		}
		if cur == nil || cur.patch == "" && (text == "" || strings.HasPrefix(text, "#")) {
			continue
		}
		if cur.patch == "" && !strings.HasPrefix(text, "--- ") {
			guards, ok := strings.CutPrefix(text, "guards:")
			if !ok {
				return nil, fmt.Errorf("row %s: unexpected line %q", cur.name, text)
			}
			cur.guards = strings.Fields(guards)
			continue
		}
		cur.patch += line
		if f, ok := strings.CutPrefix(text, "+++ b/"); ok {
			cur.files = append(cur.files, f)
		}
	}
	for _, r := range rows {
		if len(r.files) == 0 || len(r.guards) == 0 {
			return nil, fmt.Errorf("row %s: want a diff and at least one guard", r.name)
		}
	}
	return rows, nil
}

// copyTree copies the module at src to dst, skipping hidden directories.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != src && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		target := filepath.Join(dst, p)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// importPath returns the import path of the module directory dir.
func importPath(modPath, dir string) string {
	if dir == "." {
		return modPath
	}
	return modPath + "/" + dir
}
