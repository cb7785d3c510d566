package check

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"bulk/internal/flatmap"
	"bulk/internal/mutate"
	"bulk/internal/par"
	"bulk/internal/rng"
)

// Budget bounds one exploration: at most MaxSchedules executions, with
// decisions beyond Depth pinned to the default choice (bounding the tree).
type Budget struct {
	MaxSchedules int
	Depth        int
}

// SmallBudget is a smoke-test budget (sub-second per target).
func SmallBudget() Budget { return Budget{MaxSchedules: 1_000, Depth: 10} }

// MediumBudget is the default bulkcheck budget.
func MediumBudget() Budget { return Budget{MaxSchedules: 20_000, Depth: 14} }

// LargeBudget is the thorough sweep budget.
func LargeBudget() Budget { return Budget{MaxSchedules: 120_000, Depth: 18} }

// BudgetByName resolves small/medium/large.
func BudgetByName(name string) (Budget, bool) {
	switch name {
	case "small":
		return SmallBudget(), true
	case "medium":
		return MediumBudget(), true
	case "large":
		return LargeBudget(), true
	default:
		return Budget{}, false
	}
}

// Failure is a minimized failing schedule.
type Failure struct {
	// Schedule replays the failure deterministically via NewReplay.
	Schedule []int
	// Reason is the first oracle rejection.
	Reason string
	// Outcome is the failing execution's full judgment.
	Outcome *Outcome
	// Steps is the human-readable decision list of the failing replay.
	Steps []Step
}

// Report summarizes one exploration.
type Report struct {
	Target string
	// Schedules is the number of distinct schedules executed and counted.
	Schedules int
	// Distinct is the number of distinct outcome fingerprints reached —
	// a measure of how much behavioral diversity the schedules exposed.
	Distinct int
	// Duplicates counts redundant re-executions of already-seen canonical
	// schedules. Exploration never repeats a schedule, so it is always 0
	// there; random walks report their repeat draws here instead of
	// inflating Schedules, which keeps Walk and ExploreParallel reports
	// comparable measures of distinct work.
	Duplicates int
	// Failure is the first (minimized) failing schedule, nil if none.
	Failure *Failure
}

// ExploreParallel walks the schedule space of t in canonical best-first
// order across workers goroutines (workers <= 0 means GOMAXPROCS): it
// executes the default schedule, then systematically flips each recorded
// decision to each alternative choice, extending failure-free prefixes —
// shortest first, lexicographic within a length — until the budget is
// exhausted or an oracle rejects an execution. Every prefix has exactly
// one parent (see expandChildren), so no schedule runs twice and Schedules
// counts distinct schedules. On failure the schedule is minimized
// (greedily reverting choices to the default while the failure
// reproduces) before reporting.
//
// Each best-first wave — the prefixes tied for minimum length, in
// lexicographic order — runs on par.Each, whose workers claim wave indices
// one at a time; results land by wave index and are reduced serially in
// canonical order, so the explored set, the report and the failing
// schedule are byte-identical at every worker count and claim order. With
// one worker the waves run inline on the caller's goroutine.
func ExploreParallel(t Target, muts mutate.Set, b Budget, workers int) *Report {
	rep, _, _ := explore(t, muts, b, workers)
	return rep
}

// explore is the shared implementation. Every schedule runs on a pooled
// per-worker system reset to its just-built state between runs. Besides
// the report it returns the outcome-fingerprint set behind Distinct and
// the unexplored frontier, which the differential tests compare with the
// reference explorer's.
func explore(t Target, muts mutate.Set, b Budget, workers int) (*Report, *flatmap.Set, *frontier) {
	rep := &Report{Target: t.Name()}
	var fps flatmap.Set
	fr := newFrontier(b.Depth)
	fr.add(nil)
	counted, distinct := 0, 0

	var results []waveResult
	var scratch []workerScratch

	for counted < b.MaxSchedules && !fr.empty() {
		length, rows, total := fr.takeMin()
		n := total
		if rem := b.MaxSchedules - counted; n > rem {
			n = rem
		}
		// Execute the wave. Workers claim wave indices from the pool and
		// write their outcome and encoded children into their own index's
		// slot; they share nothing else. The result and scratch
		// pools persist across waves; worker ids index scratch, so pooled
		// runners and schedulers never migrate mid-wave.
		if cap(results) < n {
			results = make([]waveResult, n)
		} else {
			results = results[:n]
		}
		for nw := par.Workers(workers, n); len(scratch) < nw; {
			scratch = append(scratch, workerScratch{})
		}
		par.Each(n, workers, func(w, i int) {
			sc := &scratch[w]
			res := &results[i]
			sc.prefix = decodeRow(rows, length, i, sc.prefix)
			if sc.runner == nil && sc.runnerErr == nil {
				sc.runner, sc.runnerErr = t.newRunner(muts)
			}
			if sc.runnerErr != nil {
				*res = waveResult{out: Outcome{Err: sc.runnerErr}}
				return
			}
			sc.runner.RunSchedule(&res.out, sc.prefix, b.Depth)
			res.kids = expandChildren(res.kids[:0], sc.runner.sched.Trace(), length, sc)
		})
		// Reduce in canonical order. Everything order-sensitive — the
		// schedule count, the Distinct tally, and the first failure —
		// happens here, serially, exactly as a serial explorer would have
		// done it.
		for i := 0; i < n; i++ {
			counted++
			f := results[i].out.Fingerprint
			if !fps.Has(f) {
				fps.Add(f)
				distinct++
			}
			if results[i].out.Failed() {
				rep.Schedules, rep.Distinct = counted, distinct
				failing := decodeRow(rows, length, i, nil)
				oc := results[i].out // off the pooled slice before minimize replays
				rep.Failure = minimize(t, muts, b, failing, &oc)
				return rep, &fps, fr
			}
			fr.addRows(results[i].kids)
		}
		if n < total {
			fr.putBack(rows, length, n, total)
		}
	}

	rep.Schedules, rep.Distinct = counted, distinct
	return rep, &fps, fr
}

// waveResult is one wave execution's contribution, landed by index. The
// outcome is inline (not a pointer) and the child rows are appended to the
// slot's previous rows' storage, so the pooled results slice recycles both
// across waves.
type waveResult struct {
	out  Outcome
	kids []byte // length-prefixed child rows for frontier.addRows
}

// workerScratch is the per-worker reusable state of an exploration: the
// decoded prefix, the choice bytes of the current trace, and the worker's
// pooled runner. Indexed by the pool's worker id, so no synchronization.
type workerScratch struct {
	prefix    []int
	choices   []byte
	runner    *runner
	runnerErr error
}

// expandChildren appends every child of an executed prefix to dst as
// length-prefixed rows: for each recorded decision past the forced prefix,
// each alternative choice. A child is prefix ++ 0…0 ++ c with c ≥ 1 at a
// position at or past the prefix's length, so trimDefaults of all but its
// last choice gives back the prefix: every prefix has exactly one parent,
// and the tree emits each one once without a dedup set.
func expandChildren(dst []byte, tr []Step, from int, sc *workerScratch) []byte {
	sc.choices = sc.choices[:0]
	for _, st := range tr {
		if st.Arity > MaxDepth+1 {
			panic("check: decision arity exceeds one-byte choice encoding") //bulklint:invariant arity is bounded by the workload's processor count
		}
		sc.choices = append(sc.choices, byte(st.Choice))
	}
	size := 0
	for i := from; i < len(tr); i++ {
		size += (tr[i].Arity - 1) * (i + 2) // row = len byte + i+1 choices
	}
	dst = slices.Grow(dst, size)
	for i := from; i < len(tr); i++ {
		for c := 1; c < tr[i].Arity; c++ {
			dst = append(dst, byte(i+1))
			dst = append(dst, sc.choices[:i]...)
			dst = append(dst, byte(c))
		}
	}
	return dst
}

// Walk runs random-walk schedules: each trial deviates from the default
// with the given probability at every decision within the budget's depth.
// Draws that land on an already-executed canonical schedule are counted as
// Duplicates and not re-judged (replays are deterministic, so a repeat
// draw can expose nothing new); MaxSchedules bounds total draws, so
// Schedules reports the distinct schedules actually explored. Failures
// minimize and replay exactly like ExploreParallel's.
func Walk(t Target, muts mutate.Set, b Budget, seed uint64, deviate float64) *Report {
	rep := &Report{Target: t.Name()}
	var fps, seen flatmap.Set
	r := rng.New(seed)
	for rep.Schedules+rep.Duplicates < b.MaxSchedules {
		sched := NewRandomWalk(b.Depth, r.Uint64(), deviate)
		out := t.Run(sched, muts)
		key := hashSchedule(sched.Schedule())
		if seen.Has(key) {
			rep.Duplicates++
			continue
		}
		seen.Add(key)
		rep.Schedules++
		if !fps.Has(out.Fingerprint) {
			fps.Add(out.Fingerprint)
			rep.Distinct++
		}
		if out.Failed() {
			rep.Failure = minimize(t, muts, b, sched.Schedule(), out)
			break
		}
	}
	return rep
}

// Replay executes one explicit schedule against t and returns its outcome
// and recorded decision trace.
func Replay(t Target, muts mutate.Set, schedule []int, depth int) (*Outcome, []Step) {
	if d := len(schedule); d > depth {
		depth = d
	}
	sched := NewReplay(schedule, depth)
	out := t.Run(sched, muts)
	return out, sched.Trace()
}

// minimize greedily reverts choices to the default, from the end of the
// schedule backwards, keeping any revert that still fails.
func minimize(t Target, muts mutate.Set, b Budget, schedule []int, out *Outcome) *Failure {
	schedule = trimDefaults(schedule)
	for i := len(schedule) - 1; i >= 0; i-- {
		if i >= len(schedule) || schedule[i] == 0 {
			continue
		}
		cand := make([]int, len(schedule))
		copy(cand, schedule)
		cand[i] = 0
		cand = trimDefaults(cand)
		if o := t.Run(NewReplay(cand, b.Depth), muts); o.Failed() {
			schedule, out = cand, o
		}
	}
	_, steps := Replay(t, muts, schedule, b.Depth)
	return &Failure{
		Schedule: schedule, Reason: out.Failure(), Outcome: out,
		Steps: steps[:min(len(steps), len(schedule))],
	}
}

// FormatSchedule renders a schedule as the comma-separated form bulkcheck
// prints and accepts back via -replay.
func FormatSchedule(s []int) string {
	if len(s) == 0 {
		return "(default)"
	}
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return strings.Join(parts, ",")
}

// ParseSchedule parses FormatSchedule's comma-separated form.
func ParseSchedule(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "(default)" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		c, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("check: bad schedule element %q", p)
		}
		if c < 0 {
			return nil, fmt.Errorf("check: negative choice %d", c)
		}
		out[i] = c
	}
	return out, nil
}
