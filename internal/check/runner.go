package check

import "bulk/internal/mutate"

// runner drives one pooled system through many schedules: instead of
// rebuilding the world per schedule as Target.Run does, it resets the
// system to its just-built state in place before each run. The two paths
// produce byte-identical Outcomes; the differential tests pin that. A
// runner is not safe for concurrent use; the explorer gives each worker
// its own.
type runner struct {
	sys   system
	sched *ReplayScheduler // reset per schedule
	viol  []string         // soundness-probe sink, reset per schedule
}

// newRunner builds the pooled system one worker drives.
func (t Target) newRunner(muts mutate.Set) (*runner, error) {
	r := &runner{sched: NewReplay(nil, 0)}
	sys, err := t.build(nil, soundnessProbe(&r.viol), muts)
	if err != nil {
		return nil, err
	}
	r.sys = sys
	return r, nil
}

// RunSchedule executes the schedule prefix at the given recording depth
// from the just-built state, filling out (which is reset first); the
// runner's scheduler then holds the executed trace.
func (r *runner) RunSchedule(out *Outcome, prefix []int, depth int) {
	out.reset()
	r.viol = r.viol[:0]
	r.sched.Reset(prefix, depth)
	r.sys.Reset()
	r.sys.SetScheduler(r.sched)
	_, err := r.sys.RunUntil(nil)
	// Soundness violations land in the outcome whether or not the run
	// errored, matching Target.Run.
	if len(r.viol) > 0 {
		out.Soundness = append(out.Soundness, r.viol...)
	}
	if err != nil {
		out.Err = err // fingerprint stays 0, as in Target.Run
		return
	}
	out.judge(r.sys)
}

// reset clears an Outcome for reuse, dropping retained slices so pooled
// outcomes never alias a previous schedule's soundness log.
func (o *Outcome) reset() {
	*o = Outcome{}
}
