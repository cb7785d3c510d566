package check

import (
	"fmt"
	"slices"
	"testing"

	"bulk/internal/flatmap"
	"bulk/internal/mutate"
)

// The explorer runs every schedule on a pooled system reset in place to
// its just-built state. Its contract is byte-identity with the reference:
// for any target, mutation set and worker count, the report, fingerprint
// set, and frontier are exactly those of a serial best-first
// loop that executes every schedule with Target.Run on a freshly built
// system. These tests pin that contract across every stock target and
// every catalog mutation, and compare outcomes schedule by schedule.

// replayExplore is the reference explorer: explore's best-first loop,
// serial, with every schedule executed by Target.Run on a fresh system —
// no pooling, no resets. Like explore, it returns the report, the
// fingerprint set and the unexplored frontier.
func replayExplore(tgt Target, muts mutate.Set, b Budget) (*Report, *flatmap.Set, *frontier) {
	rep := &Report{Target: tgt.Name()}
	var fps flatmap.Set
	fr := newFrontier(b.Depth)
	fr.add(nil)
	var sc workerScratch
	for rep.Schedules < b.MaxSchedules && !fr.empty() {
		length, rows, total := fr.takeMin()
		n := min(total, b.MaxSchedules-rep.Schedules)
		for i := 0; i < n; i++ {
			prefix := decodeRow(rows, length, i, nil)
			sched := NewReplay(prefix, b.Depth)
			out := tgt.Run(sched, muts)
			rep.Schedules++
			if !fps.Has(out.Fingerprint) {
				fps.Add(out.Fingerprint)
				rep.Distinct++
			}
			if out.Failed() {
				rep.Failure = minimize(tgt, muts, b, prefix, out)
				return rep, &fps, fr
			}
			fr.addRows(expandChildren(nil, sched.Trace(), length, &sc))
		}
		if n < total {
			fr.putBack(rows, length, n, total)
		}
	}
	return rep, &fps, fr
}

// runnerMatchesRun drives one pooled runner through schedules back to back
// and checks each outcome against a fresh Target.Run: fingerprint, failure
// reason, and soundness log.
func runnerMatchesRun(t *testing.T, tgt Target, muts mutate.Set, schedules [][]int, depth int) {
	t.Helper()
	r, err := tgt.newRunner(muts)
	if err != nil {
		t.Fatal(err)
	}
	var out Outcome
	for i, s := range schedules {
		want := tgt.Run(NewReplay(s, depth), muts)
		r.RunSchedule(&out, s, depth)
		if out.Fingerprint != want.Fingerprint {
			t.Errorf("%s: schedule %d %v: fingerprint %#x, want %#x",
				tgt.Name(), i, s, out.Fingerprint, want.Fingerprint)
		}
		if out.Failure() != want.Failure() {
			t.Errorf("%s: schedule %d %v: judgment %q, want %q", tgt.Name(), i, s, out.Failure(), want.Failure())
		}
		if len(out.Soundness) != len(want.Soundness) {
			t.Errorf("%s: schedule %d %v: %d soundness entries, want %d",
				tgt.Name(), i, s, len(out.Soundness), len(want.Soundness))
		}
	}
}

// TestRunnerMatchesReplayClean: on failure-free targets the explorer
// reproduces the reference report at every worker count, and ends with
// the same fingerprint set and the same frontier, in the same order — not
// merely the same counts.
func TestRunnerMatchesReplayClean(t *testing.T) {
	b := Budget{MaxSchedules: 1_500, Depth: 12}
	for _, tgt := range SweepTargets() {
		want, wantFps, wantFr := replayExplore(tgt, 0, b)
		if want.Failure != nil {
			t.Fatalf("%s: unmutated target failed: %s", tgt.Name(), want.Failure.Reason)
		}
		wantKeys, wantPending := wantFps.SortedKeys(nil), drainFrontier(wantFr)
		if len(wantPending) == 0 {
			t.Fatalf("%s: the budget exhausted the schedule space; no frontier to compare", tgt.Name())
		}
		for _, w := range []int{1, 2, 4, 8} {
			label := fmt.Sprintf("%s/w=%d", tgt.Name(), w)
			got, gotFps, gotFr := explore(tgt, 0, b, w)
			reportsEqual(t, label, got, want)
			if !slices.Equal(gotFps.SortedKeys(nil), wantKeys) {
				t.Errorf("%s: fingerprint set diverges from the reference explorer's", label)
			}
			if !slices.EqualFunc(drainFrontier(gotFr), wantPending, slices.Equal) {
				t.Errorf("%s: frontier diverges from the reference explorer's", label)
			}
		}
	}
}

// TestRunnerMatchesReplayOnMutations: for every seeded mutation the
// explorer finds the same first failure — same minimized schedule, same
// reason, after the same number of schedules — as the reference, and a
// pooled runner judges the killing schedule, and each of its prefixes,
// exactly as a fresh Target.Run does.
func TestRunnerMatchesReplayOnMutations(t *testing.T) {
	for _, m := range Catalog() {
		m := m
		t.Run(m.ID.String(), func(t *testing.T) {
			muts := mutate.Of(m.ID)
			want, _, _ := replayExplore(m.Target, muts, m.Budget)
			if want.Failure == nil {
				t.Fatalf("mutation survived %d schedules under the reference explorer", want.Schedules)
			}
			kill := want.Failure.Schedule
			var schedules [][]int
			for k := 0; k <= len(kill); k++ {
				schedules = append(schedules, kill[:k])
			}
			runnerMatchesRun(t, m.Target, muts, schedules, m.Budget.Depth)
			for _, w := range []int{1, 4} {
				reportsEqual(t, fmt.Sprintf("w=%d", w), ExploreParallel(m.Target, muts, m.Budget, w), want)
			}
		})
	}
}

// TestRunnerMatchesTargetRun: the pooled runner, driven schedule by
// schedule, judges every outcome exactly as a fresh Target.Run does —
// fingerprint, oracle verdict, soundness log — including when the same
// runner replays schedules back to back and revisits earlier ones.
func TestRunnerMatchesTargetRun(t *testing.T) {
	schedules := [][]int{
		nil, {1}, {2}, {1, 1}, {1, 2}, {2, 1}, {1, 1, 1}, {1}, nil, {2, 1},
	}
	for _, tgt := range SweepTargets() {
		runnerMatchesRun(t, tgt, 0, schedules, 10)
	}
}

// TestRunnerAllocsPerSchedule pins that a warmed pooled runner allocates
// nothing per schedule on any sweep target. Reset keeps every table's and
// buffer's storage, each runtime's oracle keeps its own, and the outcome
// digest accumulates in place. A Reset that drops storage — memory rebuilt
// instead of emptied, say — regrows its tables every schedule and breaks
// the pin while every outcome stays the same.
func TestRunnerAllocsPerSchedule(t *testing.T) {
	schedules := [][]int{nil, {1}, {2}, {1, 1}, {1, 2}, {2, 1}, {1, 1, 1}}
	for _, tgt := range SweepTargets() {
		r, err := tgt.newRunner(0)
		if err != nil {
			t.Fatal(err)
		}
		var out Outcome
		for range 2 {
			for _, s := range schedules {
				r.RunSchedule(&out, s, 10)
			}
		}
		i := 0
		got := testing.AllocsPerRun(10*len(schedules), func() {
			r.RunSchedule(&out, schedules[i%len(schedules)], 10)
			i++
		})
		if got > 0 {
			t.Errorf("%s: %.0f allocations per schedule, want 0", tgt.Name(), got)
		}
	}
}
