// Command bulklint runs the project's static-analysis pass over the module.
//
// Usage:
//
//	bulklint [-list] [patterns]
//
// Patterns follow the usual Go tool shape: "./..." (the default) lints the
// whole module; "./internal/sig" or "bulk/internal/sig" lints one package;
// a trailing "/..." matches a subtree. The whole module is always loaded
// (type-checking needs the full import graph) and every rule always runs;
// patterns only select which packages' findings are reported.
//
// -list prints the rules and what each flags.
//
// Exit status: 0 when clean, 1 when findings were reported, 2 on usage or
// load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"bulk/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	list := flag.Bool("list", false, "list rules and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bulklint [-list] [patterns]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bulklint: %v\n", err)
		return 2
	}

	pkgs, fset, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bulklint: %v\n", err)
		return 2
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	for _, pat := range patterns {
		if !patternMatchesAny(pkgs, root, pat) {
			fmt.Fprintf(os.Stderr, "bulklint: pattern %q matched no packages\n", pat)
			return 2
		}
	}

	findings := filterByPatterns(lint.RunAnalyzers(pkgs, fset), root, patterns)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// patternMatchesAny reports whether pat selects at least one loaded
// package, so a typo'd path fails loudly instead of linting nothing.
func patternMatchesAny(pkgs []*lint.Package, root, pat string) bool {
	for _, p := range pkgs {
		if matchPattern(relDir(p.Dir, root), pat) {
			return true
		}
	}
	return false
}

// relDir renders a package directory relative to the module root with
// forward slashes ("" for the root package itself).
func relDir(dir, root string) string {
	out := filepath.ToSlash(dir)
	if rel, err := filepath.Rel(root, dir); err == nil && !strings.HasPrefix(rel, "..") {
		out = filepath.ToSlash(rel)
		if out == "." {
			out = ""
		}
	}
	return out
}

// filterByPatterns keeps findings whose file falls under one of the
// package patterns, resolved relative to the module root.
func filterByPatterns(findings []lint.Finding, root string, patterns []string) []lint.Finding {
	var out []lint.Finding
	for _, f := range findings {
		dir := relDir(filepath.Dir(f.File), root)
		for _, pat := range patterns {
			if matchPattern(dir, pat) {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

// matchPattern reports whether the module-relative directory dir matches a
// ./-style package pattern.
func matchPattern(dir, pat string) bool {
	pat = strings.TrimPrefix(pat, "./")
	pat = strings.TrimPrefix(pat, "bulk/")
	if pat == "..." || pat == "." || pat == "" {
		return true
	}
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		return dir == rest || strings.HasPrefix(dir, rest+"/")
	}
	return dir == pat
}
