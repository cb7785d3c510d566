package check

import (
	"bulk/internal/core"
	"bulk/internal/mutate"
)

// runner drives one pooled system through many schedules: instead of
// rebuilding the world per schedule as Target.Run does, it restores a base
// snapshot (or a cached fork-point snapshot) between runs. The two paths
// produce byte-identical Outcomes; the differential tests pin that. A
// runner is not safe for concurrent use; the explorer gives each worker
// its own.
//
//bulklint:snapstate
type runner struct {
	sys   system
	sched *ReplayScheduler // reset or resumed per schedule
	base  *core.Snapshot   // the system's state before any quantum
	viol  []string         // soundness-probe sink, reset per schedule
}

// newRunner builds the pooled system one worker drives.
func (t Target) newRunner(muts mutate.Set) (*runner, error) {
	r := &runner{sched: NewReplay(nil, 0)}
	sys, err := t.build(nil, soundnessProbe(&r.viol), muts)
	if err != nil {
		return nil, err
	}
	r.sys, r.base = sys, sys.Snapshot(nil)
	return r, nil
}

// RunSchedule executes the schedule prefix at the given recording depth,
// filling out (which is reset first); the runner's scheduler then holds
// the executed trace. The run resumes from the longest
// cached fork point its prefix matches and, when capture is set, deposits
// its own fork-point capture for child schedules; the deposited entry is
// returned (nil when no capture happened) so the explorer can retire it
// once its children are all accounted for. The explorer clears capture for
// runs whose children can never execute — a budget-truncated final wave —
// where a deposit would be pure waste.
//
//bulklint:captures reset
func (r *runner) RunSchedule(out *Outcome, prefix []int, depth int, cache *snapCache, capture bool) *snapEntry {
	out.reset()
	sched := r.sched
	r.viol = r.viol[:0]
	if entry := cache.lookup(prefix); entry != nil {
		sched.Resume(prefix, depth, entry.count, entry.steps)
		r.sys.Restore(entry.state)
		cache.release(entry)
	} else {
		sched.Reset(prefix, depth)
		r.sys.Restore(r.base)
	}
	r.sys.SetScheduler(sched)
	done := false
	var err error
	var captured *snapEntry
	if capture && len(prefix) > 0 && len(prefix) < depth {
		// Fork-point capture: pause at the first tick boundary past the
		// forced prefix — the state every child row of this prefix shares.
		captureAt := len(prefix)
		done, err = r.sys.RunUntil(func() bool { return sched.Count() >= captureAt })
		if err == nil && !done {
			st := r.sys.Snapshot(cache.takeSpare())
			captured = cache.insert(prefix, sched.Count(), sched.Trace(), st)
		}
	}
	if err == nil && !done {
		_, err = r.sys.RunUntil(nil)
	}
	// Soundness violations land in the outcome whether or not the run
	// errored, matching Target.Run.
	if len(r.viol) > 0 {
		out.Soundness = append(out.Soundness, r.viol...)
	}
	if err != nil {
		out.Err = err // fingerprint stays 0, as in Target.Run
		return captured
	}
	out.judge(r.sys)
	return captured
}

// reset clears an Outcome for reuse, dropping retained slices so pooled
// outcomes never alias a previous schedule's soundness log.
//
//bulklint:captures reset
func (o *Outcome) reset() {
	*o = Outcome{}
}
