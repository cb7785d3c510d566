package check

import (
	"bulk/internal/core"
	"bulk/internal/mutate"
	"bulk/internal/sim"
)

// Target is one runtime on a fixed workload, judged by the runtime's
// serializability oracle and the signature-soundness probe. The three
// runtimes meet the checker through one contract (system), so one Target
// serves them all.
type Target struct {
	name string
	// build constructs a fresh system with the checker's hooks installed:
	// the scheduler (nil for a pooled system, which gets one per
	// schedule), the soundness probe, and the mutation set.
	build func(sched sim.Scheduler, probe *sim.Probe, muts mutate.Set) (system, error)
}

// system is a runtime's System as the checker drives it: the core
// machine's driver contract (RunUntil, SetScheduler, Reset) plus the
// runtime's Judge of a completed run.
type system interface {
	RunUntil(pause func() bool) (done bool, err error)
	SetScheduler(sim.Scheduler)
	Reset()
	Judge(d *core.Digest) error
}

// Name returns the target's name, as reports and -target print it.
func (t Target) Name() string { return t.name }

// Run executes one schedule on a freshly built system. It is the
// reference the pooled runners are tested against, and the path Walk,
// minimize and Replay take.
func (t Target) Run(sched sim.Scheduler, muts mutate.Set) *Outcome {
	out := &Outcome{}
	sys, err := t.build(sched, soundnessProbe(&out.Soundness), muts)
	if err == nil {
		_, err = sys.RunUntil(nil)
	}
	if err != nil {
		out.Err = err // fingerprint stays 0
		return out
	}
	out.judge(sys)
	return out
}

// judge finishes a completed run: the runtime's oracle verdict plus the
// digest of its observable outcome as the fingerprint. The digest
// accumulates in the fingerprint itself: a local handed to the interface
// call would escape, one allocation per judged schedule.
func (o *Outcome) judge(sys system) {
	d := (*core.Digest)(&o.Fingerprint)
	*d = core.NewDigest()
	o.OracleErr = sys.Judge(d)
}
