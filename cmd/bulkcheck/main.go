// Command bulkcheck explores the schedule space of the tm, tls and ckpt
// runtimes, judging every execution against two oracles: serializability
// (final memory must match a conflict-free sequential reference) and
// signature soundness (every real conflict must be caught by the signature
// test, and bulk invalidation must never squash a line outside the
// committer-visible write set).
//
// Usage:
//
//	bulkcheck                                # best-first sweep, all protocols
//	bulkcheck -workers 8                     # same sweep on 8 workers,
//	                                         # byte-identical report
//	bulkcheck -protocol tm -budget large     # deeper sweep of one runtime
//	bulkcheck -mode walk -seed 7             # seeded random-walk fuzzing
//	bulkcheck -mutations all                 # prove the oracles have teeth
//	bulkcheck -target tm-sweep -replay 0,1,2 # re-execute one schedule
//	bulkcheck -target tm-sweep -schedules 5000 # one target, own budget
//
// A failing run prints the minimized schedule both as a canonical choice
// list (feed it back via -replay) and as a human-readable step list; the
// same schedule deterministically reproduces the same failure — the
// systematic explorer visits schedules in canonical best-first order, so
// the report does not depend on -workers, and a sweep with a larger
// -schedules budget first runs every schedule a smaller one runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bulk/internal/check"
	"bulk/internal/mutate"
	"bulk/internal/serve"
)

// options holds the parsed command line.
type options struct {
	protocol, mode, budget, mutations, target, replay string
	schedules, depth, workers                         int
	seed                                              uint64
	deviate                                           float64
	verbose                                           bool
	// set holds the names of the flags given on the command line, so a
	// flag a mode ignores is told apart from its default.
	set map[string]bool
}

func main() {
	var o options
	flag.StringVar(&o.protocol, "protocol", "all", "runtime to check: tm, tls, ckpt, or all")
	flag.StringVar(&o.mode, "mode", "dfs", "exploration mode: dfs (systematic best-first) or walk (random)")
	flag.StringVar(&o.budget, "budget", "medium", "exploration budget: small, medium, or large")
	flag.IntVar(&o.schedules, "schedules", 0, "override max schedules per target (0 = budget default)")
	flag.IntVar(&o.depth, "depth", 0, "override decision depth (0 = budget default)")
	flag.IntVar(&o.workers, "workers", 0, "explorer worker goroutines (0 = GOMAXPROCS); the report is identical at every count")
	flag.Uint64Var(&o.seed, "seed", 2006, "random-walk seed")
	flag.Float64Var(&o.deviate, "deviate", 0.3, "random-walk per-decision deviation probability")
	flag.StringVar(&o.mutations, "mutations", "", "mutation audit: 'all' or comma-separated names (empty = sweep the unmutated tree); with -replay, the names to replay under")
	flag.StringVar(&o.target, "target", "", "single target by name (required with -replay)")
	flag.StringVar(&o.replay, "replay", "", "replay one schedule (comma-separated choices) instead of exploring")
	flag.BoolVar(&o.verbose, "v", false, "print per-target exploration statistics")
	flag.Parse()
	o.set = map[string]bool{}
	flag.Visit(func(f *flag.Flag) { o.set[f.Name] = true })

	if err := validateFlags(o); err != nil {
		fmt.Fprintf(os.Stderr, "bulkcheck: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	b, _ := check.BudgetByName(o.budget)
	if o.schedules > 0 {
		b.MaxSchedules = o.schedules
	}
	if o.depth > 0 {
		b.Depth = o.depth
	}
	muts, _ := parseMutations(o.mutations)

	if o.replay != "" {
		runReplay(o.target, o.replay, b.Depth, muts)
		return
	}
	if o.mutations != "" {
		runMutations(muts, o.workers, o.verbose)
		return
	}
	runSweep(o, b)
}

// runSweep explores the unmutated tree and fails on any oracle rejection.
func runSweep(o options, b check.Budget) {
	targets, _ := check.TargetsByProtocol(o.protocol)
	if o.target != "" {
		t, _ := targetByName(o.target)
		targets = []check.Target{t}
	}
	failed := false
	for _, t := range targets {
		var rep *check.Report
		if o.mode == "walk" {
			rep = check.Walk(t, 0, b, o.seed, o.deviate)
		} else {
			rep = check.ExploreParallel(t, 0, b, o.workers)
		}
		if rep.Failure != nil {
			failed = true
			fmt.Print(serve.CheckFail(t.Name(), rep))
			continue
		}
		fmt.Print(serve.CheckOK(t.Name(), rep, o.verbose))
	}
	if failed {
		os.Exit(1)
	}
}

// runMutations proves the checker's teeth: every requested seeded mutation
// must be killed — the explorer must find an oracle-rejected schedule —
// within its catalog budget.
func runMutations(muts mutate.Set, workers int, verbose bool) {
	survived := 0
	for _, m := range check.Catalog() {
		if !muts.Has(m.ID) {
			continue
		}
		rep := check.ExploreParallel(m.Target, mutate.Of(m.ID), m.Budget, workers)
		if rep.Failure == nil {
			survived++
			fmt.Printf("SURVIVED %-26s %d schedules found no violation\n", m.ID, rep.Schedules)
			continue
		}
		fmt.Printf("killed   %-26s schedule %s (%d schedules)\n",
			m.ID, check.FormatSchedule(rep.Failure.Schedule), rep.Schedules)
		if verbose {
			fmt.Printf("         %s\n", rep.Failure.Reason)
		}
	}
	if survived > 0 {
		fmt.Printf("%d mutation(s) survived\n", survived)
		os.Exit(1)
	}
}

// runReplay re-executes one explicit schedule — optionally under seeded
// mutations, so a mutation-audit kill reproduces too — and reports its
// judgment.
func runReplay(name, schedule string, depth int, muts mutate.Set) {
	t, _ := targetByName(name)
	sched, _ := check.ParseSchedule(schedule) // validateFlags rejected a malformed one
	out, steps := check.Replay(t, muts, sched, depth)
	for _, st := range steps {
		fmt.Printf("  %s\n", st)
	}
	if out.Failed() {
		fmt.Printf("FAIL %s schedule %s: %s\n", name, check.FormatSchedule(sched), out.Failure())
		os.Exit(1)
	}
	fmt.Printf("ok   %s schedule %s\n", name, check.FormatSchedule(sched))
}

// targetByName resolves sweep and directed targets alike, so a failing
// schedule printed by any mode can be replayed.
func targetByName(name string) (check.Target, bool) {
	for _, t := range allTargets() {
		if t.Name() == name {
			return t, true
		}
	}
	return check.Target{}, false
}

func targetNames() string {
	names := []string{}
	for _, t := range allTargets() {
		names = append(names, t.Name())
	}
	return strings.Join(names, ", ")
}

func allTargets() []check.Target {
	ts := check.SweepTargets()
	for _, m := range check.Catalog() {
		ts = append(ts, m.Target)
	}
	return ts
}

// validateFlags rejects out-of-domain flag values and combinations it
// would misread before any exploration starts, so a typo'd invocation dies
// with usage (exit 2, like the flag package's own parse errors) instead of
// misbehaving mid-sweep.
func validateFlags(o options) error {
	if o.workers < 0 {
		return fmt.Errorf("-workers %d is negative (0 means GOMAXPROCS)", o.workers)
	}
	if o.schedules < 0 {
		return fmt.Errorf("-schedules %d is negative (0 means the budget default)", o.schedules)
	}
	if o.depth < 0 {
		return fmt.Errorf("-depth %d is negative (0 means the budget default)", o.depth)
	}
	if o.depth > check.MaxDepth {
		return fmt.Errorf("-depth %d exceeds %d, the deepest the explorer encodes", o.depth, check.MaxDepth)
	}
	if !(o.deviate >= 0 && o.deviate <= 1) { // also rejects NaN
		return fmt.Errorf("-deviate %v is not a probability in [0, 1]", o.deviate)
	}
	if _, ok := check.BudgetByName(o.budget); !ok {
		return fmt.Errorf("unknown budget %q (want small, medium, or large)", o.budget)
	}
	if o.mode != "dfs" && o.mode != "walk" {
		return fmt.Errorf("unknown mode %q (want dfs or walk)", o.mode)
	}
	if _, err := check.TargetsByProtocol(o.protocol); err != nil {
		return fmt.Errorf("unknown protocol %q (want tm, tls, ckpt, or all)", o.protocol)
	}
	if _, err := parseMutations(o.mutations); err != nil {
		return err
	}
	if _, err := check.ParseSchedule(o.replay); err != nil {
		return fmt.Errorf("-replay: %v", err)
	}
	if o.target != "" {
		if _, ok := targetByName(o.target); !ok {
			return fmt.Errorf("unknown target %q (try one of: %s)", o.target, targetNames())
		}
	}
	// The combinations below would otherwise run without the mutations
	// or mode asked for, or without a target, and could report a false ok.
	switch {
	case o.replay != "" && o.target == "":
		return fmt.Errorf("-replay requires -target (one of: %s)", targetNames())
	case o.replay != "" && o.mutations == "all":
		return fmt.Errorf("-replay takes the mutation names a kill was found under, not -mutations all")
	case o.mode == "walk" && o.mutations != "":
		return fmt.Errorf("-mode walk does not combine with -mutations (the mutation audit runs the systematic explorer)")
	case o.mode == "walk" && o.replay != "":
		return fmt.Errorf("-mode walk does not combine with -replay (a replay runs the one schedule given)")
	}
	// Flags a mode ignores: set, they would be dropped without a word.
	for _, name := range []string{"seed", "deviate"} {
		if o.set[name] && o.mode != "walk" {
			return fmt.Errorf("-%s applies only to -mode walk", name)
		}
	}
	if o.set["workers"] && (o.mode == "walk" || o.replay != "") {
		return fmt.Errorf("-workers does not apply to -mode walk or -replay, which run on one goroutine")
	}
	if o.mutations != "" && o.replay == "" {
		for _, name := range []string{"target", "protocol", "budget", "schedules", "depth"} {
			if o.set[name] {
				return fmt.Errorf("-%s does not apply to the mutation audit, which explores each mutation's own target within its own budget", name)
			}
		}
	}
	return nil
}

// parseMutations resolves -mutations: empty is none, "all" every
// mutation, anything else a comma-separated list of names.
func parseMutations(names string) (mutate.Set, error) {
	var muts mutate.Set
	switch names {
	case "":
		return 0, nil
	case "all":
		for id := mutate.ID(0); id < mutate.NumIDs; id++ {
			muts |= mutate.Of(id)
		}
		return muts, nil
	}
	for _, n := range strings.Split(names, ",") {
		id, ok := mutate.ByName(strings.TrimSpace(n))
		if !ok {
			return 0, fmt.Errorf("unknown mutation %q", n)
		}
		muts |= mutate.Of(id)
	}
	return muts, nil
}
