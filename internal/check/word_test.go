package check

import (
	"fmt"
	"sync/atomic"
	"testing"

	"bulk/internal/core"
	"bulk/internal/mutate"
	"bulk/internal/sim"
	"bulk/internal/tm"
	"bulk/internal/workload"
)

// noSquashTM judges a TM run as tm.System.Judge does, then also rejects
// any squash and tallies the word merges the run performed.
type noSquashTM struct {
	*tm.System
	merges *atomic.Uint64
}

func (s noSquashTM) Judge(d *core.Digest) error {
	if err := s.System.Judge(d); err != nil {
		return err
	}
	st := s.Finish().Stats
	s.merges.Add(st.Merges)
	if st.Squashes != 0 {
		return fmt.Errorf("disjoint-word conflict squashed %d times; Updated Word Bitmask merge should have absorbed it", st.Squashes)
	}
	return nil
}

// TestDisjointWordWritesNeverSquash is satellite coverage for Section 4.4:
// two transactions updating disjoint words of the same cache line must
// reconcile through the Updated Word Bitmask merge — zero squashes — under
// every interleaving the explorer can reach at depth <= 6, and the merge
// path must actually fire on at least one of those schedules.
func TestDisjointWordWritesNeverSquash(t *testing.T) {
	var merges atomic.Uint64
	base := tmTarget("tm-word-disjoint", tmWorkload("word-disjoint",
		[]workload.TMSegment{
			txn(wr(wordOf(lineL, 0)), wd(wordOf(lineB, 0))),
		},
		[]workload.TMSegment{
			txn(wr(wordOf(lineL, 1)), wd(wordOf(lineP0, 0))),
		},
	), func(o *tm.Options) { o.WordGranularity = true })
	tgt := Target{name: base.name, build: func(sched sim.Scheduler, probe *sim.Probe, muts mutate.Set) (system, error) {
		sys, err := base.build(sched, probe, muts)
		if err != nil {
			return nil, err
		}
		return noSquashTM{sys.(*tm.System), &merges}, nil
	}}
	rep := ExploreParallel(tgt, 0, Budget{MaxSchedules: 50_000, Depth: 6}, 1)
	if rep.Failure != nil {
		t.Fatalf("schedule %s: %s", FormatSchedule(rep.Failure.Schedule), rep.Failure.Reason)
	}
	if merges.Load() == 0 {
		t.Errorf("no schedule among %d exercised the word-merge path; workload no longer overlaps the line", rep.Schedules)
	}
	t.Logf("%d schedules, %d distinct outcomes, %d merges observed",
		rep.Schedules, rep.Distinct, merges.Load())
}
