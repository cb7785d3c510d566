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
//	bulkcheck -target tm-sweep -schedules 5000 -checkpoint cp.bin
//	bulkcheck -resume cp.bin -schedules 20000 # continue where cp.bin stopped
//
// A failing run prints the minimized schedule both as a canonical choice
// list (feed it back via -replay) and as a human-readable step list; the
// same schedule deterministically reproduces the same failure — the
// systematic explorer visits schedules in canonical best-first order, so
// the report does not depend on -workers or on where a
// checkpoint/resume boundary fell.
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

func main() {
	var (
		protocol  = flag.String("protocol", "all", "runtime to check: tm, tls, ckpt, or all")
		mode      = flag.String("mode", "dfs", "exploration mode: dfs (systematic best-first) or walk (random)")
		budget    = flag.String("budget", "medium", "exploration budget: small, medium, or large")
		schedules = flag.Int("schedules", 0, "override max schedules per target (0 = budget default)")
		depth     = flag.Int("depth", 0, "override decision depth (0 = budget default)")
		workers   = flag.Int("workers", 0, "explorer worker goroutines (0 = GOMAXPROCS); the report is identical at every count")
		seed      = flag.Uint64("seed", 2006, "random-walk seed")
		deviate   = flag.Float64("deviate", 0.3, "random-walk per-decision deviation probability")
		mutations = flag.String("mutations", "", "mutation audit: 'all' or comma-separated names (empty = sweep the unmutated tree)")
		target    = flag.String("target", "", "single target by name (required with -replay and -checkpoint)")
		replay    = flag.String("replay", "", "replay one schedule (comma-separated choices) instead of exploring")
		ckptPath  = flag.String("checkpoint", "", "write a resumable frontier checkpoint to FILE on a clean budget stop (requires -target)")
		resume    = flag.String("resume", "", "resume a sweep from a checkpoint FILE (target and depth come from the checkpoint)")
		verbose   = flag.Bool("v", false, "print per-target exploration statistics")
	)
	flag.Parse()

	if err := validateFlags(*workers, *schedules, *depth, *deviate, *budget); err != nil {
		fmt.Fprintf(os.Stderr, "bulkcheck: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	b, _ := check.BudgetByName(*budget)
	if *schedules > 0 {
		b.MaxSchedules = *schedules
	}
	if *depth > 0 {
		b.Depth = *depth
	}

	if *replay != "" {
		var muts mutate.Set
		if *mutations != "" && *mutations != "all" {
			for _, n := range strings.Split(*mutations, ",") {
				id, ok := mutate.ByName(strings.TrimSpace(n))
				if !ok {
					fatalf("unknown mutation %q", n)
				}
				muts |= mutate.Of(id)
			}
		}
		runReplay(*target, *replay, b.Depth, muts)
		return
	}
	if *resume != "" || *ckptPath != "" {
		runCheckpointed(*resume, *ckptPath, *target, b, *depth, *workers, *verbose)
		return
	}
	if *mutations != "" {
		runMutations(*mutations, *workers, *verbose)
		return
	}
	runSweep(*protocol, *mode, b, *workers, *seed, *deviate, *target, *verbose)
}

// runCheckpointed handles the resumable single-target modes: -checkpoint
// writes the frontier on a clean stop, -resume continues from one. Because
// the explorer is deterministic, the combined report of a checkpointed and
// resumed sweep is identical to one uninterrupted run with the full
// budget.
func runCheckpointed(resumePath, ckptPath, target string, b check.Budget, depthFlag, workers int, verbose bool) {
	var from *check.Checkpoint
	if resumePath != "" {
		data, err := os.ReadFile(resumePath)
		if err != nil {
			fatalf("%v", err)
		}
		if from, err = check.DecodeCheckpoint(data); err != nil {
			fatalf("%v", err)
		}
		if target != "" && target != from.Target {
			fatalf("-target %s conflicts with checkpoint target %s", target, from.Target)
		}
		if depthFlag > 0 && depthFlag != from.Depth {
			fatalf("-depth %d conflicts with checkpoint depth %d (depth is fixed at checkpoint time)", depthFlag, from.Depth)
		}
		target = from.Target
		b.Depth = from.Depth
		if from.Done() {
			fmt.Printf("ok   %s: schedule space exhausted at checkpoint (%d schedules); nothing to resume\n",
				target, from.Schedules)
			return
		}
	}
	if target == "" {
		fatalf("-checkpoint requires -target (one of: %s)", targetNames())
	}
	t, ok := targetByName(target)
	if !ok {
		fatalf("unknown target %q (try one of: %s)", target, targetNames())
	}
	rep, cp, err := check.ExploreFrom(t, 0, b, workers, from)
	if err != nil {
		fatalf("%v", err)
	}
	if rep.Failure != nil {
		fmt.Print(serve.CheckFail(t.Name(), rep))
		os.Exit(1)
	}
	if verbose {
		fmt.Printf("ok   %s: %d schedules, %d distinct outcomes, %d pending prefixes\n",
			t.Name(), rep.Schedules, rep.Distinct, len(cp.Frontier))
	} else {
		fmt.Print(serve.CheckOK(t.Name(), rep, false))
	}
	if ckptPath != "" {
		if err := os.WriteFile(ckptPath, cp.Encode(), 0o644); err != nil {
			fatalf("%v", err)
		}
		if cp.Done() {
			fmt.Printf("checkpoint: %s (schedule space exhausted)\n", ckptPath)
		} else {
			fmt.Printf("checkpoint: %s (resume with -resume %s)\n", ckptPath, ckptPath)
		}
	}
}

// runSweep explores the unmutated tree and fails on any oracle rejection.
func runSweep(protocol, mode string, b check.Budget, workers int, seed uint64, deviate float64, only string, verbose bool) {
	targets, err := check.TargetsByProtocol(protocol)
	if err != nil {
		fatalf("%v", err)
	}
	if only != "" {
		t, ok := targetByName(only)
		if !ok {
			fatalf("unknown target %q (try one of: %s)", only, targetNames())
		}
		targets = []check.Target{t}
	}
	failed := false
	for _, t := range targets {
		var rep *check.Report
		switch mode {
		case "dfs":
			rep = check.ExploreParallel(t, 0, b, workers)
		case "walk":
			rep = check.Walk(t, 0, b, seed, deviate)
		default:
			fatalf("unknown mode %q (want dfs or walk)", mode)
		}
		if rep.Failure != nil {
			failed = true
			fmt.Print(serve.CheckFail(t.Name(), rep))
			continue
		}
		fmt.Print(serve.CheckOK(t.Name(), rep, verbose))
	}
	if failed {
		os.Exit(1)
	}
}

// runMutations proves the checker's teeth: every requested seeded mutation
// must be killed — the explorer must find an oracle-rejected schedule —
// within its catalog budget.
func runMutations(names string, workers int, verbose bool) {
	catalog := check.Catalog()
	if names != "all" {
		want := map[mutate.ID]bool{}
		for _, n := range strings.Split(names, ",") {
			id, ok := mutate.ByName(strings.TrimSpace(n))
			if !ok {
				fatalf("unknown mutation %q", n)
			}
			want[id] = true
		}
		kept := catalog[:0]
		for _, m := range catalog {
			if want[m.ID] {
				kept = append(kept, m)
			}
		}
		catalog = kept
	}
	survived := 0
	for _, m := range catalog {
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
	if name == "" {
		fatalf("-replay requires -target (one of: %s)", targetNames())
	}
	t, ok := targetByName(name)
	if !ok {
		fatalf("unknown target %q (try one of: %s)", name, targetNames())
	}
	sched, err := check.ParseSchedule(schedule)
	if err != nil {
		fatalf("%v", err)
	}
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

// validateFlags rejects out-of-domain flag values before any exploration
// starts, so a typo'd invocation dies with usage (exit 2, like the flag
// package's own parse errors) instead of misbehaving mid-sweep.
func validateFlags(workers, schedules, depth int, deviate float64, budget string) error {
	if workers < 0 {
		return fmt.Errorf("-workers %d is negative (0 means GOMAXPROCS)", workers)
	}
	if schedules < 0 {
		return fmt.Errorf("-schedules %d is negative (0 means the budget default)", schedules)
	}
	if depth < 0 {
		return fmt.Errorf("-depth %d is negative (0 means the budget default)", depth)
	}
	if !(deviate >= 0 && deviate <= 1) { // also rejects NaN
		return fmt.Errorf("-deviate %v is not a probability in [0, 1]", deviate)
	}
	if _, ok := check.BudgetByName(budget); !ok {
		return fmt.Errorf("unknown budget %q (want small, medium, or large)", budget)
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bulkcheck: "+format+"\n", args...)
	os.Exit(1)
}
