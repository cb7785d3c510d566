package lint

import (
	"strings"

	"bulk/internal/det"
)

// This file implements the stalewaiver audit, which runs after every
// other analyzer. Each //bulklint: directive must earn its keep:
//
//   - a waiver (ordered / invariant / locked / allow <rule>) must have
//     suppressed at least one live finding of its rule this run;
//   - an annotation (guardedby, noalloc) must have attached to a real
//     declaration (a struct field, a function);
//   - the directive name — and, for allow, the waived rule — must be one
//     the suite knows.
//
// Audit findings are filed without a package, so they cannot themselves
// be waived — a stale waiver is fixed by deleting it, never by waiving
// the audit.

// waiverRule maps each waiver directive to the rule whose findings it
// suppresses; allow names its rule in the argument.
var waiverRule = map[string]string{
	"ordered":   "maprange",
	"invariant": "nakedpanic",
	"locked":    "guardedby",
	"allow":     "",
}

// unattached maps each annotation directive to the audit message for one
// that ends a run attached to no declaration.
var unattached = map[string]string{
	"guardedby": "//bulklint:guardedby annotation is not attached to a struct field",
	"noalloc":   "//bulklint:noalloc annotation is not attached to a function declaration",
	"purehook":  "//bulklint:purehook annotation is not attached to a function declaration",
}

func analyzerStaleWaiver() *Analyzer {
	return &Analyzer{
		Name: "stalewaiver",
		Doc:  "//bulklint: directive that suppresses no live finding or names an unknown rule",
		Run: func(pkgs []*Package, r *Reporter) {
			known := map[string]bool{}
			for _, name := range AnalyzerNames() {
				known[name] = true
			}
			for _, pkg := range pkgs {
				for _, file := range det.SortedKeys(pkg.directives) {
					byLine := pkg.directives[file]
					for _, line := range det.SortedKeys(byLine) {
						for _, d := range byLine[line] {
							auditDirective(file, d, known, r)
						}
					}
				}
			}
		},
	}
}

func auditDirective(file string, d *directive, known map[string]bool, r *Reporter) {
	rule, isWaiver := waiverRule[d.name]
	msg, isAnnotation := unattached[d.name]
	switch {
	case !isWaiver && !isAnnotation:
		r.reportAt(file, d.line, d.col, "stalewaiver",
			"unknown //bulklint:%s directive (known: allow, guardedby, invariant, locked, noalloc, ordered, purehook)", d.name)
		return
	case d.name == "allow":
		rule, _, _ = strings.Cut(d.arg, " ")
		if !known[rule] {
			r.reportAt(file, d.line, d.col, "stalewaiver",
				"//bulklint:allow waives unknown rule %q", rule)
			return
		}
	}
	switch {
	case d.used:
	case isAnnotation:
		r.reportAt(file, d.line, d.col, "stalewaiver", "%s", msg)
	default:
		r.reportAt(file, d.line, d.col, "stalewaiver",
			"stale //bulklint:%s waiver: it suppresses no live %s finding; delete it", d.name, rule)
	}
}
