package check

import (
	"slices"
	"testing"

	"bulk/internal/mutate"
)

// TestMutationsKilled proves the checker has teeth: for every seeded
// protocol mutation, the explorer finds an oracle-rejected schedule within
// the catalog budget, the unmutated target explores clean, and the
// minimized failing schedule reproduces deterministically.
func TestMutationsKilled(t *testing.T) {
	for _, m := range Catalog() {
		m := m
		t.Run(m.ID.String(), func(t *testing.T) {
			clean := ExploreParallel(m.Target, 0, Budget{MaxSchedules: 500, Depth: m.Budget.Depth}, 1)
			if clean.Failure != nil {
				t.Fatalf("unmutated target failed: %s (schedule %s)",
					clean.Failure.Reason, FormatSchedule(clean.Failure.Schedule))
			}
			rep := ExploreParallel(m.Target, mutate.Of(m.ID), m.Budget, 1)
			if rep.Failure == nil {
				t.Fatalf("mutation survived %d schedules", rep.Schedules)
			}
			t.Logf("killed after %d schedules: %s (schedule %s)",
				rep.Schedules, rep.Failure.Reason, FormatSchedule(rep.Failure.Schedule))
			out, _ := Replay(m.Target, mutate.Of(m.ID), rep.Failure.Schedule, m.Budget.Depth)
			if !out.Failed() {
				t.Errorf("minimized schedule %s does not reproduce the failure",
					FormatSchedule(rep.Failure.Schedule))
			}
		})
	}
}

// TestMutationNamesResolve keeps the CLI's -mutations flag aligned with
// the catalog, and pins the names -budget and -protocol resolve, rejections
// included.
func TestMutationNamesResolve(t *testing.T) {
	seen := map[mutate.ID]bool{}
	for _, m := range Catalog() {
		if seen[m.ID] {
			t.Errorf("catalog lists %s twice", m.ID)
		}
		seen[m.ID] = true
		id, ok := mutate.ByName(m.ID.String())
		if !ok || id != m.ID {
			t.Errorf("mutation %s does not round-trip through ByName", m.ID)
		}
	}
	if len(seen) != int(mutate.NumIDs) {
		t.Errorf("catalog covers %d of %d mutations", len(seen), mutate.NumIDs)
	}

	budgets := []struct {
		name string
		want Budget
		ok   bool
	}{
		{"small", SmallBudget(), true},
		{"medium", MediumBudget(), true},
		{"large", LargeBudget(), true},
		{"tiny", Budget{}, false},
		{"", Budget{}, false},
	}
	for _, c := range budgets {
		if got, ok := BudgetByName(c.name); got != c.want || ok != c.ok {
			t.Errorf("BudgetByName(%q) = %+v, %v; want %+v, %v", c.name, got, ok, c.want, c.ok)
		}
	}
	protocols := []struct {
		name string
		want []string // target names; nil means rejected
	}{
		{"all", []string{"tm-sweep", "tls-sweep", "ckpt-sweep"}},
		{"tm", []string{"tm-sweep"}},
		{"tls", []string{"tls-sweep"}},
		{"ckpt", []string{"ckpt-sweep"}},
		{"TM", nil},
		{"bogus", nil},
	}
	for _, c := range protocols {
		ts, err := TargetsByProtocol(c.name)
		var got []string
		for _, tgt := range ts {
			got = append(got, tgt.Name())
		}
		if (err != nil) != (c.want == nil) || !slices.Equal(got, c.want) {
			t.Errorf("TargetsByProtocol(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
}
