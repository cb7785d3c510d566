package check

import (
	"testing"

	"bulk/internal/mutate"
)

// TestUnmutatedSweepClean is the headline soundness claim: an exhaustive
// depth-bounded DFS over more than 10k distinct schedules per protocol
// finds no serializability or signature-soundness violation in the
// unmutated tree.
func TestUnmutatedSweepClean(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is the long acceptance run")
	}
	for _, tgt := range SweepTargets() {
		tgt := tgt
		t.Run(tgt.Name(), func(t *testing.T) {
			rep := ExploreParallel(tgt, 0, Budget{MaxSchedules: 12_000, Depth: 14}, 1)
			if rep.Failure != nil {
				t.Fatalf("oracle rejected schedule %s: %s",
					FormatSchedule(rep.Failure.Schedule), rep.Failure.Reason)
			}
			if rep.Schedules < 10_000 {
				t.Errorf("schedule space exhausted after %d schedules (< 10000); deepen the sweep workload", rep.Schedules)
			}
			if rep.Distinct < 2 {
				t.Errorf("all %d schedules collapsed to one outcome; scheduler hook is not steering", rep.Schedules)
			}
			t.Logf("%d schedules, %d distinct outcomes", rep.Schedules, rep.Distinct)
		})
	}
}

// TestReportsPinned pins the reports a change to the explorer must leave
// as they are: each sweep target's schedule and distinct-outcome counts at
// the small and medium budgets, and each catalog mutation's minimized kill
// schedule and schedule count (bulkcheck -mutations all -v). ckpt-sweep
// exhausts its space at the medium budget, so a prefix the explorer runs
// twice or never changes its count. The reference explorer of the runner
// tests shares expandChildren with the pooled one, so they agree on a
// wrong tree; these numbers do not.
func TestReportsPinned(t *testing.T) {
	sweeps := []struct {
		budget              string
		target              string
		schedules, distinct int
	}{
		{"small", "tm-sweep", 1_000, 71},
		{"small", "tls-sweep", 1_000, 15},
		{"small", "ckpt-sweep", 1_000, 93},
		{"medium", "tm-sweep", 20_000, 341},
		{"medium", "tls-sweep", 20_000, 75},
		{"medium", "ckpt-sweep", 15_016, 293},
	}
	targets := map[string]Target{}
	for _, tgt := range SweepTargets() {
		targets[tgt.Name()] = tgt
	}
	for _, c := range sweeps {
		b, _ := BudgetByName(c.budget)
		rep := ExploreParallel(targets[c.target], 0, b, 2)
		if rep.Schedules != c.schedules || rep.Distinct != c.distinct || rep.Failure != nil {
			t.Errorf("%s %s: %d schedules, %d distinct, failed %v; want %d, %d, false",
				c.budget, c.target, rep.Schedules, rep.Distinct, rep.Failure != nil, c.schedules, c.distinct)
		}
	}

	kills := map[string]struct {
		schedule  string
		schedules int
	}{
		"drop-wr-term":                {"(default)", 1},
		"drop-ww-term":                {"(default)", 1},
		"skip-clean-invalidation":     {"(default)", 1},
		"drop-read-on-hit":            {"(default)", 1},
		"skip-word-merge":             {"1,1", 4},
		"skip-set-restriction":        {"0,1,1", 6},
		"skip-spilled-disambiguation": {"(default)", 1},
		"drop-shadow-write":           {"(default)", 1},
		"skip-squash-cascade":         {"(default)", 1},
		"skip-stalled-restart":        {"0,0,0,1", 9},
	}
	for _, m := range Catalog() {
		want := kills[m.ID.String()]
		rep := ExploreParallel(m.Target, mutate.Of(m.ID), m.Budget, 2)
		if rep.Failure == nil {
			t.Errorf("%s: survived %d schedules", m.ID, rep.Schedules)
			continue
		}
		if got := FormatSchedule(rep.Failure.Schedule); got != want.schedule || rep.Schedules != want.schedules {
			t.Errorf("%s: killed at schedule %s after %d schedules, want %s after %d",
				m.ID, got, rep.Schedules, want.schedule, want.schedules)
		}
	}
}

// TestDirectedTargetsCleanUnmutated: every directed kill target must pass
// its own exploration without the mutation, so a kill is attributable to
// the mutation rather than a broken workload.
func TestDirectedTargetsCleanUnmutated(t *testing.T) {
	for _, m := range Catalog() {
		m := m
		t.Run(m.Target.Name(), func(t *testing.T) {
			rep := ExploreParallel(m.Target, 0, Budget{MaxSchedules: 1_000, Depth: m.Budget.Depth}, 1)
			if rep.Failure != nil {
				t.Fatalf("unmutated %s fails schedule %s: %s", m.Target.Name(),
					FormatSchedule(rep.Failure.Schedule), rep.Failure.Reason)
			}
		})
	}
}

// TestWalkCleanUnmutated: seeded random walks over the sweep targets stay
// oracle-clean and reach multiple distinct outcomes.
func TestWalkCleanUnmutated(t *testing.T) {
	for _, tgt := range SweepTargets() {
		tgt := tgt
		t.Run(tgt.Name(), func(t *testing.T) {
			rep := Walk(tgt, 0, Budget{MaxSchedules: 300, Depth: 12}, 42, 0.3)
			if rep.Failure != nil {
				t.Fatalf("walk failed schedule %s: %s",
					FormatSchedule(rep.Failure.Schedule), rep.Failure.Reason)
			}
			if rep.Distinct < 2 {
				t.Errorf("300 walks collapsed to one outcome")
			}
		})
	}
}
