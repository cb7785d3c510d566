// Package check is a deterministic schedule-space model checker for the
// three Bulk runtimes (tm, tls, ckpt).
//
// The runtimes expose every scheduling decision — which processor steps
// next, whether a commit token is granted, whether a preemption fires —
// through the sim.Scheduler hook. A schedule is a finite prefix of
// canonical choice indices, one per decision point, where choice 0 always
// means "what the default scheduler would have done"; beyond the prefix
// every decision takes choice 0. Replaying the empty schedule therefore
// reproduces the default execution byte-identically, and any failing
// schedule is a short list of integers that deterministically reproduces
// the failure.
//
// Three oracles judge every execution:
//
//   - Serializability: each runtime's own Verify replays the committed
//     units serially in logged commit order and compares final memory
//     (the paper's "inexact but correct" guarantee).
//   - Signature soundness: the runtimes pair every signature-level
//     conflict decision with independently-computed exact ground truth
//     (sim.ConflictEvent). A signature hit without exact overlap is
//     allowed aliasing; an exact overlap the signatures missed is a
//     soundness bug. Squash hygiene (sim.HygieneEvent) additionally
//     checks that bulk invalidation only destroys the squashed thread's
//     own dirty lines — the invariant the Set Restriction maintains.
//   - Stale lines: cache lines carry no values, so a missed invalidation
//     cannot corrupt memory for Verify to see. tm reports it where it
//     happens (sim.StaleEvent): a receiver that still holds, unmerged, a
//     line a commit wrote, and a transactional miss whose overflow filter
//     skips a line the thread parked in its own overflow area.
//
// The explorer walks the schedule space best-first — shortest prefixes
// first, lexicographic within a length — under a depth/schedule budget.
// Every prefix has exactly one parent, so the tree runs no schedule twice
// and needs no dedup set. Each best-first wave (the prefixes tied for
// minimum length) executes on par.Each, whose workers claim one schedule
// at a time from a shared counter, and is reduced serially in canonical
// order, so reports are byte-identical at every worker count, and a sweep
// under a larger schedule budget first runs every schedule a smaller one
// runs. Each worker drives one pooled system of the target's runtime
// through the core machine's driver contract, resetting it in place to its
// just-built state before every schedule instead of building a fresh
// system. A random-walk fuzzer deviates within the same decision depth
// and samples schedules the schedule budget leaves unexplored. Seeded protocol mutations (internal/mutate)
// give the checker teeth: each mutation disables one load-bearing
// protocol decision, and the catalog in mutations.go pairs each with a
// directed workload whose schedule space contains a killing interleaving.
package check

import (
	"fmt"

	"bulk/internal/sim"
)

// Outcome is the judged result of one schedule's execution.
type Outcome struct {
	// Err is a run-level failure (the runtime returned an error).
	Err error
	// OracleErr is a serializability-oracle failure: the runtime's Verify
	// rejected the execution.
	OracleErr error
	// Soundness lists signature-soundness, squash-hygiene and stale-line
	// violations observed by the probe during the run.
	Soundness []string
	// Fingerprint summarizes the observable outcome (commit log, final
	// memory, headline stats); distinct fingerprints measure how much
	// behavioral diversity the explored schedules actually reached.
	Fingerprint uint64
}

// Failed reports whether any oracle rejected the execution.
func (o *Outcome) Failed() bool {
	return o.Err != nil || o.OracleErr != nil || len(o.Soundness) > 0
}

// Failure returns a one-line description of the first failure.
func (o *Outcome) Failure() string {
	switch {
	case o.Err != nil:
		return fmt.Sprintf("run error: %v", o.Err)
	case o.OracleErr != nil:
		return fmt.Sprintf("serializability: %v", o.OracleErr)
	case len(o.Soundness) > 0:
		return fmt.Sprintf("soundness: %s", o.Soundness[0])
	default:
		return "ok"
	}
}

// soundnessProbe builds a sim.Probe that records soundness, hygiene and
// stale-line violations into viol. Setting Stale arms tm's stale-copy and
// overflow-filter checks.
//
//bulklint:purehook
func soundnessProbe(viol *[]string) *sim.Probe {
	return &sim.Probe{
		Conflict: func(ev sim.ConflictEvent) {
			if ev.ExactHit && !ev.SigHit {
				*viol = append(*viol, fmt.Sprintf(
					"%s path missed a real conflict (committer %d, receiver %d)",
					ev.Path, ev.Committer, ev.Receiver))
			}
		},
		Hygiene: func(ev sim.HygieneEvent) {
			if !ev.InWriteSet {
				*viol = append(*viol, fmt.Sprintf(
					"squash of %d bulk-invalidated line %#x outside its write set",
					ev.Owner, ev.Line))
			}
		},
		Stale: func(ev sim.StaleEvent) { *viol = append(*viol, ev.String()) },
	}
}
