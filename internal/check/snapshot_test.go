package check

import (
	"bytes"
	"fmt"
	"testing"

	"bulk/internal/flatmap"
	"bulk/internal/mutate"
)

// The explorer runs every schedule on a pooled system restored from
// snapshots. Its contract is byte-identity with the reference: for any
// target, mutation set, worker count, and snapshot-cache bound, the
// report, fingerprint set, dedup set, and frontier are exactly those of a
// serial best-first loop that executes every schedule with Target.Run on a
// freshly built system. These tests pin that contract across every stock
// target, every catalog mutation, and cache bounds small enough to force
// eviction and misses, and compare outcomes schedule by schedule.

// cacheSweep covers the interesting cache regimes: a bound too small to
// hold any snapshot (every lookup misses, every insert bounces, so every
// run restores from the base state), one that thrashes (constant
// eviction), and the default (everything fits).
var cacheSweep = []int64{1, 64 << 10, snapCacheBytes}

// replayExplore is the reference explorer: explore's best-first loop,
// serial, with every schedule executed by Target.Run on a fresh system —
// no pooling, no snapshots.
func replayExplore(tgt Target, muts mutate.Set, b Budget) (*Report, *Checkpoint) {
	rep := &Report{Target: tgt.Name()}
	seen := flatmap.NewSharded(seenShards)
	seen.Add(hashSchedule(nil))
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
			fr.addRows(expandChildren(sched.Trace(), length, seen, &sc))
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
		Seen:         seen.AppendAll(nil),
		Frontier:     fr.appendAll(nil),
	}
}

// runnerMatchesRun drives one pooled runner through schedules back to back,
// with fork-point capture on so later schedules resume from earlier
// captures, and checks each outcome against a fresh Target.Run:
// fingerprint, failure reason, and soundness log.
func runnerMatchesRun(t *testing.T, tgt Target, muts mutate.Set, schedules [][]int, depth int) *snapCache {
	t.Helper()
	r, err := tgt.newRunner(muts)
	if err != nil {
		t.Fatal(err)
	}
	cache := newSnapCache(snapCacheBytes)
	var out Outcome
	for i, s := range schedules {
		want := tgt.Run(NewReplay(s, depth), muts)
		r.RunSchedule(&out, s, depth, cache, true)
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
	return cache
}

// TestSnapshotMatchesReplayClean: on failure-free targets the explorer
// reproduces the reference report at every worker count and cache bound,
// and the final checkpoints are byte-identical — same fingerprint set,
// same dedup set, same frontier — not merely the same counts.
func TestSnapshotMatchesReplayClean(t *testing.T) {
	b := Budget{MaxSchedules: 1_500, Depth: 12}
	for _, tgt := range SweepTargets() {
		want, wantCP := replayExplore(tgt, 0, b)
		if want.Failure != nil {
			t.Fatalf("%s: unmutated target failed: %s", tgt.Name(), want.Failure.Reason)
		}
		wantBytes := wantCP.Encode()
		for _, cb := range cacheSweep {
			for _, w := range []int{1, 2, 4, 8} {
				label := fmt.Sprintf("%s/cache=%d/w=%d", tgt.Name(), cb, w)
				got, gotCP, err := explore(tgt, 0, b, w, nil, true, cb)
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
}

// TestSnapshotMatchesReplayOnMutations: for every seeded mutation the
// explorer finds the same first failure — same minimized schedule, same
// reason, after the same number of schedules — as the reference, and a
// pooled runner judges the killing schedule, and each of its prefixes,
// exactly as a fresh Target.Run does.
func TestSnapshotMatchesReplayOnMutations(t *testing.T) {
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
			for _, cb := range cacheSweep {
				for _, w := range []int{1, 4} {
					label := fmt.Sprintf("cache=%d/w=%d", cb, w)
					got, _, err := explore(m.Target, muts, m.Budget, w, nil, false, cb)
					if err != nil {
						t.Fatal(err)
					}
					reportsEqual(t, label, got, want)
				}
			}
		})
	}
}

// TestSnapshotCheckpointCutIdentical: interrupting a sweep at an arbitrary
// budget boundary and resuming — with a starved cache on either leg or
// the default — reproduces the uninterrupted run exactly. Snapshot state
// is per-call and never leaks into the checkpoint.
func TestSnapshotCheckpointCutIdentical(t *testing.T) {
	tgt := SweepTargets()[0]
	full := Budget{MaxSchedules: 1_500, Depth: 12}
	whole, wholeCP, err := ExploreFrom(tgt, 0, full, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Failure != nil {
		t.Fatalf("unmutated target failed: %s", whole.Failure.Reason)
	}
	legs := [][2]int64{{snapCacheBytes, 1}, {1, snapCacheBytes}}
	for _, cut := range []int{1, 137, 1_000} {
		for _, leg := range legs {
			label := fmt.Sprintf("cut=%d/cache=%d,%d", cut, leg[0], leg[1])
			_, cp, err := explore(tgt, 0, Budget{MaxSchedules: cut, Depth: full.Depth}, 4, nil, true, leg[0])
			if err != nil {
				t.Fatal(err)
			}
			if cp == nil {
				t.Fatalf("%s: partial run returned no checkpoint", label)
			}
			resumed, resumedCP, err := explore(tgt, 0, full, 1, cp, true, leg[1])
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
// schedule with fork-point capture enabled, judges every outcome exactly
// as a fresh Target.Run does — fingerprint, oracle verdict, soundness log
// — including when the same runner replays schedules back to back and
// resumes siblings from its own captures.
func TestRunnerMatchesTargetRun(t *testing.T) {
	schedules := [][]int{
		nil, {1}, {2}, {1, 1}, {1, 2}, {2, 1}, {1, 1, 1}, {1}, nil, {2, 1},
	}
	for _, tgt := range SweepTargets() {
		cache := runnerMatchesRun(t, tgt, 0, schedules, 10)
		if st := cache.Stats(); st.Inserts == 0 {
			t.Errorf("%s: fork-point cache saw no inserts; capture path never ran", tgt.Name())
		}
	}
}

// TestSnapCacheEvictsUnderPressure: a budget holding only a couple of
// snapshots keeps total within bounds by evicting and recycling older
// entries, and lookups after eviction are clean misses, not stale hits.
func TestSnapCacheEvictsUnderPressure(t *testing.T) {
	r, err := SweepTargets()[0].newRunner(0)
	if err != nil {
		t.Fatal(err)
	}
	// Learn one snapshot's size, then rebuild the cache sized for two.
	probe := newSnapCache(snapCacheBytes)
	var out Outcome
	r.RunSchedule(&out, []int{1}, 10, probe, true)
	if probe.head == nil {
		t.Fatal("probe run deposited no fork-point snapshot")
	}
	cache := newSnapCache(2*probe.head.size + probe.head.size/2)
	for c := 1; c <= 2; c++ {
		for i := 0; i < 4; i++ {
			r.RunSchedule(&out, []int{c, i%3 + 1}, 10, cache, true)
			if out.Failed() {
				t.Fatalf("schedule [%d %d] failed: %s", c, i%3+1, out.Failure())
			}
		}
	}
	st := cache.Stats()
	if st.Inserts == 0 {
		t.Fatal("no inserts; the budget rejected every snapshot")
	}
	if st.Evictions == 0 {
		t.Errorf("no evictions under a two-snapshot budget (inserts=%d, total=%d)", st.Inserts, cache.total)
	}
	if cache.total > cache.budget {
		t.Errorf("cache total %d exceeds budget %d with no pinned entries", cache.total, cache.budget)
	}
	if len(cache.spareSt) == 0 {
		t.Error("evictions recycled no snapshot states into the spare pool")
	}
}
