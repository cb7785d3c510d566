package check

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"bulk/internal/mutate"
)

// reportsEqual compares everything a Report promises to be deterministic:
// the counts and, when present, the minimized failing schedule with its
// reason and replayed steps.
func reportsEqual(t *testing.T, label string, got, want *Report) {
	t.Helper()
	if got.Target != want.Target || got.Schedules != want.Schedules ||
		got.Distinct != want.Distinct || got.Duplicates != want.Duplicates {
		t.Errorf("%s: counts (target=%s sched=%d distinct=%d dup=%d), want (target=%s sched=%d distinct=%d dup=%d)",
			label, got.Target, got.Schedules, got.Distinct, got.Duplicates,
			want.Target, want.Schedules, want.Distinct, want.Duplicates)
	}
	if (got.Failure == nil) != (want.Failure == nil) {
		t.Errorf("%s: failure presence %v, want %v", label, got.Failure != nil, want.Failure != nil)
		return
	}
	if got.Failure == nil {
		return
	}
	if !slices.Equal(got.Failure.Schedule, want.Failure.Schedule) {
		t.Errorf("%s: failing schedule %s, want %s",
			label, FormatSchedule(got.Failure.Schedule), FormatSchedule(want.Failure.Schedule))
	}
	if got.Failure.Reason != want.Failure.Reason {
		t.Errorf("%s: failure reason %q, want %q", label, got.Failure.Reason, want.Failure.Reason)
	}
	if len(got.Failure.Steps) != len(want.Failure.Steps) {
		t.Errorf("%s: %d failure steps, want %d", label, len(got.Failure.Steps), len(want.Failure.Steps))
	}
}

// TestParallelMatchesSerialClean: on failure-free targets the parallel
// explorer's report is identical to the serial one at every worker count —
// same schedule count, same distinct-fingerprint count — even when the
// budget clips the final wave.
func TestParallelMatchesSerialClean(t *testing.T) {
	b := Budget{MaxSchedules: 2_000, Depth: 12}
	for _, tgt := range SweepTargets() {
		serial := ExploreParallel(tgt, 0, b, 1)
		if serial.Failure != nil {
			t.Fatalf("%s: unmutated target failed: %s", tgt.Name(), serial.Failure.Reason)
		}
		for _, w := range []int{1, 2, 4, 8} {
			reportsEqual(t, tgt.Name(), ExploreParallel(tgt, 0, b, w), serial)
		}
	}
}

// TestParallelMatchesSerialOnMutations: for every seeded mutation the
// parallel explorer finds the same first failure — same minimized
// schedule, same reason, after the same number of schedules — as the
// serial explorer, at workers 2, 4, and 8.
func TestParallelMatchesSerialOnMutations(t *testing.T) {
	for _, m := range Catalog() {
		m := m
		t.Run(m.ID.String(), func(t *testing.T) {
			serial := ExploreParallel(m.Target, mutate.Of(m.ID), m.Budget, 1)
			if serial.Failure == nil {
				t.Fatalf("mutation survived %d schedules", serial.Schedules)
			}
			for _, w := range []int{2, 4, 8} {
				reportsEqual(t, m.ID.String(), ExploreParallel(m.Target, mutate.Of(m.ID), m.Budget, w), serial)
			}
		})
	}
}

// TestConcurrentExplorations runs two explorations at once, as bulkd does
// when its two workers each take a check cell, and pins that they share
// no mutable package state: each report equals the serial one, and under
// -race any package variable both write is a reported race. Each
// goroutine stays alive until both explorations are done: the detector
// reports a race only while it can still recover the first access's
// stack, and a goroutine that has exited may have lost it.
func TestConcurrentExplorations(t *testing.T) {
	tgt := SweepTargets()[0]
	b := Budget{MaxSchedules: 50, Depth: 6}
	want := ExploreParallel(tgt, 0, b, 1)
	var got [2]*Report
	var done sync.WaitGroup
	release := make(chan struct{})
	for i := range got {
		done.Add(1)
		go func() {
			got[i] = ExploreParallel(tgt, 0, b, 1)
			done.Done()
			<-release
		}()
	}
	done.Wait()
	close(release)
	for i, rep := range got {
		reportsEqual(t, fmt.Sprint("exploration ", i), rep, want)
	}
}

// TestWalkReportsDuplicates: with a low deviation probability most random
// draws repeat the default schedule; Walk must report them as Duplicates
// rather than inflating Schedules, and still bound total draws by the
// budget.
func TestWalkReportsDuplicates(t *testing.T) {
	tgt := SweepTargets()[0]
	rep := Walk(tgt, 0, Budget{MaxSchedules: 200, Depth: 8}, 42, 0.02)
	if rep.Failure != nil {
		t.Fatalf("unmutated walk failed: %s", rep.Failure.Reason)
	}
	if rep.Schedules+rep.Duplicates != 200 {
		t.Errorf("draws = %d schedules + %d duplicates, want 200 total", rep.Schedules, rep.Duplicates)
	}
	if rep.Duplicates == 0 {
		t.Error("expected duplicate draws at deviate=0.02, got none")
	}
	if rep.Schedules == 0 || rep.Distinct == 0 {
		t.Errorf("walk explored %d schedules, %d distinct outcomes; want both > 0", rep.Schedules, rep.Distinct)
	}
}

// TestFrontierShortlexOrder: the frontier drains in canonical shortlex
// order no matter the insert order, and budget-clipped tails re-enter at
// the front of that order.
func TestFrontierShortlexOrder(t *testing.T) {
	prefixes := [][]int{{2, 1}, {1}, {1, 1, 1}, {2}, {1, 2}, {3}, {1, 1}}
	fr := newFrontier(4)
	for _, p := range prefixes {
		fr.add(p)
	}
	want := [][]int{{1}, {2}, {3}, {1, 1}, {1, 2}, {2, 1}, {1, 1, 1}}
	got := drainFrontier(fr)
	if len(got) != len(want) {
		t.Fatalf("drained %d prefixes, want %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("position %d: %v, want %v", i, got[i], want[i])
		}
	}

	// Clip a wave and put the tail back: it must drain next, still sorted.
	fr = newFrontier(4)
	for _, p := range want[3:6] { // the three length-2 prefixes
		fr.add(p)
	}
	l, rows, n := fr.takeMin()
	fr.putBack(rows, l, 1, n)
	fr.add([]int{1, 2, 1}) // longer prefix must not jump the queue
	l2, rows2, n2 := fr.takeMin()
	if l2 != 2 || n2 != 2 {
		t.Fatalf("after putBack, takeMin returned %d rows of length %d, want 2 of length 2", n2, l2)
	}
	if got := decodeRow(rows2, l2, 0, nil); !slices.Equal(got, []int{1, 2}) {
		t.Errorf("first resumed prefix %v, want [1 2]", got)
	}
}

// drainFrontier empties fr and returns its prefixes in the order the
// explorer would take them.
func drainFrontier(fr *frontier) [][]int {
	var out [][]int
	for !fr.empty() {
		l, rows, n := fr.takeMin()
		for k := 0; k < n; k++ {
			out = append(out, decodeRow(rows, l, k, nil))
		}
	}
	return out
}

// TestHashScheduleMatchesSteps: extending a schedule's hash by one choice
// gives the hash of the extended schedule, and the default schedule hashes
// to the FNV offset basis.
func TestHashScheduleMatchesSteps(t *testing.T) {
	s := []int{3, 0, 1, 2, 0, 0, 5}
	h := uint64(fnvOffset)
	for i, c := range s {
		if want := hashSchedule(s[:i]); h != want {
			t.Fatalf("rolling hash diverges at step %d", i)
		}
		h = hashStep(h, c)
	}
	if h != hashSchedule(s) {
		t.Fatal("rolling hash diverges at the full schedule")
	}
	if hashSchedule(nil) != fnvOffset {
		t.Fatal("empty schedule must hash to the FNV offset basis")
	}
}
