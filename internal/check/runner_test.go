package check

import (
	"bytes"
	"fmt"
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
// no pooling, no resets.
func replayExplore(tgt Target, muts mutate.Set, b Budget) (*Report, *Checkpoint) {
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
				return rep, nil
			}
			fr.addRows(expandChildren(nil, sched.Trace(), length, &sc))
		}
		if n < total {
			fr.putBack(rows, length, n, total)
		}
	}
	return rep, &Checkpoint{
		Target:       tgt.Name(),
		Depth:        b.Depth,
		Schedules:    rep.Schedules,
		Fingerprints: fps.SortedKeys(nil),
		Frontier:     fr.appendAll(nil),
	}
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
// reproduces the reference report at every worker count, and the final
// checkpoints are byte-identical — same fingerprint set, same frontier —
// not merely the same counts.
func TestRunnerMatchesReplayClean(t *testing.T) {
	b := Budget{MaxSchedules: 1_500, Depth: 12}
	for _, tgt := range SweepTargets() {
		want, wantCP := replayExplore(tgt, 0, b)
		if want.Failure != nil {
			t.Fatalf("%s: unmutated target failed: %s", tgt.Name(), want.Failure.Reason)
		}
		wantBytes := wantCP.Encode()
		for _, w := range []int{1, 2, 4, 8} {
			label := fmt.Sprintf("%s/w=%d", tgt.Name(), w)
			got, gotCP, err := ExploreFrom(tgt, 0, b, w, nil)
			if err != nil {
				t.Fatal(err)
			}
			reportsEqual(t, label, got, want)
			if gotCP == nil {
				t.Fatalf("%s: clean stop returned no checkpoint", label)
			}
			if !bytes.Equal(gotCP.Encode(), wantBytes) {
				t.Errorf("%s: checkpoint bytes diverge from the reference explorer's", label)
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
			want, _ := replayExplore(m.Target, muts, m.Budget)
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

// TestRunnerCheckpointCutIdentical: interrupting a sweep at an arbitrary
// budget boundary and resuming — on a different worker count than the
// interrupted leg ran — reproduces the uninterrupted run exactly. Pooled
// runner state is per-call and never leaks into the checkpoint.
func TestRunnerCheckpointCutIdentical(t *testing.T) {
	tgt := SweepTargets()[0]
	full := Budget{MaxSchedules: 1_500, Depth: 12}
	whole, wholeCP, err := ExploreFrom(tgt, 0, full, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Failure != nil {
		t.Fatalf("unmutated target failed: %s", whole.Failure.Reason)
	}
	legs := [][2]int{{4, 1}, {1, 4}}
	for _, cut := range []int{1, 137, 1_000} {
		for _, leg := range legs {
			label := fmt.Sprintf("cut=%d/w=%d,%d", cut, leg[0], leg[1])
			_, cp, err := ExploreFrom(tgt, 0, Budget{MaxSchedules: cut, Depth: full.Depth}, leg[0], nil)
			if err != nil {
				t.Fatal(err)
			}
			if cp == nil {
				t.Fatalf("%s: partial run returned no checkpoint", label)
			}
			resumed, resumedCP, err := ExploreFrom(tgt, 0, full, leg[1], cp)
			if err != nil {
				t.Fatal(err)
			}
			reportsEqual(t, label, resumed, whole)
			if resumedCP == nil || !bytes.Equal(resumedCP.Encode(), wholeCP.Encode()) {
				t.Errorf("%s: resumed checkpoint diverges from uninterrupted run's", label)
			}
		}
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
