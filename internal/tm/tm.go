// Package tm is the transactional-memory runtime: it executes a TM
// workload on a simulated multiprocessor under one of three conflict
// schemes — Eager (exact, conflicts detected at access time), Lazy (exact,
// conflicts detected at commit) or Bulk (signature-based lazy detection per
// the paper).
//
// The runtime drives, per processor: an unmodified L1 cache, a Bulk
// Disambiguation Module (Bulk scheme), exact read/write sets (used by
// Eager/Lazy for disambiguation and by Bulk as ground truth for
// false-positive accounting), a speculative write buffer, and an overflow
// area. A shared bus serializes commits and accounts bandwidth by message
// type (Figure 13), with commit packets tracked separately (Figure 14).
//
// Correctness is checked end to end: the run logs its commit order, and
// Verify replays the committed units serially in that order — the final
// memory images must match (conflict serializability in commit order).
package tm

import (
	"bulk/internal/bus"
	"bulk/internal/core"
	"bulk/internal/mem"
	"bulk/internal/sim"
)

// Scheme selects the conflict-detection mechanism.
type Scheme int

const (
	// Eager detects conflicts at access time using exact addresses
	// (writes acquire ownership and squash conflicting readers/writers).
	Eager Scheme = iota
	// Lazy detects conflicts at commit time using exact address lists.
	Lazy
	// Bulk detects conflicts at commit time using address signatures.
	Bulk
)

func (s Scheme) String() string {
	switch s {
	case Eager:
		return "Eager"
	case Lazy:
		return "Lazy"
	case Bulk:
		return "Bulk"
	default:
		return "Scheme(?)"
	}
}

// Options configures a TM run: the shared machine options (Table 5 TM
// defaults: 32 KB 4-way L1s, sim.DefaultTM timing, the line-granularity
// sig.DefaultTM signature, RestartLimit 1000) plus the transactional
// policy.
type Options struct {
	core.Config
	Scheme Scheme
	// PartialRollback enables per-section rollback of closed nested
	// transactions (Section 6.2.1). Bulk only.
	PartialRollback bool
	// LivelockFix enables the footnote-2 contention fix for Eager: after
	// repeated mutual squashes, the younger transaction stalls instead of
	// squashing the older. Defaults to on via NewOptions; Figure 12(a)
	// turns it off.
	LivelockFix bool
	// NoRLE disables run-length encoding of Bulk commit packets (ablation).
	NoRLE bool
	// PreemptEvery > 0 preempts a running transaction at every such op
	// boundary for PreemptPause cycles, running an interloper process on
	// the processor meanwhile (Section 6.2.2's context switches).
	PreemptEvery int
	// PreemptPause is the descheduled duration in cycles (default 500).
	PreemptPause int
	// SpillOnPreempt moves the preempted transaction's signatures out of
	// the BDM to memory (and its dirty lines to the overflow area), as
	// when a processor runs out of signature slots. Bulk only.
	SpillOnPreempt bool
	// WordGranularity makes Bulk signatures encode word addresses
	// (Section 4.4 applied to TM): transactions updating different words
	// of a line no longer conflict, and partially updated lines merge via
	// the Updated Word Bitmask machinery. Bulk only.
	WordGranularity bool
}

// NewOptions returns Options with the paper's defaults for a scheme.
func NewOptions(s Scheme) Options {
	return Options{
		Config:      core.Config{Params: sim.DefaultTM()},
		Scheme:      s,
		LivelockFix: true,
	}
}

// defaults is the Table 5 TM machine the options fall back on.
var defaults = core.Config{Params: sim.DefaultTM(), CacheBytes: 32 << 10, CacheWays: 4, RestartLimit: 1000}

// Stats aggregates a run's measurements.
type Stats struct {
	// Commits is the number of committed transactions.
	Commits uint64
	// Squashes is the number of transaction squashes (restarts).
	Squashes uint64
	// FalseSquashes is the subset of squashes whose exact address sets
	// did not overlap — pure signature aliasing (Bulk only).
	FalseSquashes uint64
	// DepSetLines accumulates, over squashes, the exact overlap between
	// the committer's write set and the squashed transaction's read+write
	// sets, in lines ("Dep Set Size" of Table 7).
	DepSetLines uint64
	// FalseInvalidations counts lines invalidated at commit that the
	// committer had not actually written (aliasing; "False Inv/Com").
	FalseInvalidations uint64
	// ReadSetLines/WriteSetLines accumulate committed transactions'
	// footprints (to report the Table 7 set sizes as measured).
	ReadSetLines  uint64
	WriteSetLines uint64
	// SafeWritebacks and SetConflicts come from the Set Restriction
	// (Bulk only; Table 7 "Safe WB/Tr").
	SafeWritebacks uint64
	SetConflicts   uint64
	// OverflowAccesses counts all overflow-area traffic events (spills,
	// fetches, disambiguation scans, deallocations) — the quantity whose
	// Bulk/Lazy ratio Table 7 reports.
	OverflowAccesses uint64
	// Stalls counts Eager livelock-fix stalls.
	Stalls uint64
	// Preemptions counts mid-transaction context switches.
	Preemptions uint64
	// InterloperWriteThroughs counts interloper writes forced to write
	// through by the Set Restriction.
	InterloperWriteThroughs uint64
	// DoomedOnResume counts preempted transactions invalidated by a
	// remote commit while their signatures were spilled to memory.
	DoomedOnResume uint64
	// PartialRollbacks counts section-level (non-full) rollbacks.
	PartialRollbacks uint64
	// Merges counts word-granularity line merges at commit (Section 4.4,
	// WordGranularity mode).
	Merges uint64
	// Cycles is the total simulated run time.
	Cycles int64
	// Bandwidth is the bus traffic breakdown.
	Bandwidth bus.Bandwidth
	// LivelockDetected is set when RestartLimit was exceeded.
	LivelockDetected bool
}

// CommitUnit is one entry of the commit log: either a committed transaction
// or a single non-transactional write, in global serialization order.
type CommitUnit struct {
	Thread  int
	Segment int
	// OpLo/OpHi bound the ops this unit covers: a transaction covers its
	// whole segment [0, len(Ops)); a non-transactional op covers [i, i+1).
	OpLo, OpHi int
}

// Result is a completed run.
type Result struct {
	Stats  Stats
	Memory *mem.Memory
	Log    []CommitUnit
	// PerTxnDepSamples counts squashes with a real dependence, for
	// averaging DepSetLines.
	RealSquashes uint64
}

// AvgReadSetLines returns the mean committed read-set size in lines.
func (r *Result) AvgReadSetLines() float64 {
	if r.Stats.Commits == 0 {
		return 0
	}
	return float64(r.Stats.ReadSetLines) / float64(r.Stats.Commits)
}

// AvgWriteSetLines returns the mean committed write-set size in lines.
func (r *Result) AvgWriteSetLines() float64 {
	if r.Stats.Commits == 0 {
		return 0
	}
	return float64(r.Stats.WriteSetLines) / float64(r.Stats.Commits)
}

// AvgDepSetLines returns the mean dependence-set size over real squashes.
func (r *Result) AvgDepSetLines() float64 {
	if r.RealSquashes == 0 {
		return 0
	}
	return float64(r.Stats.DepSetLines) / float64(r.RealSquashes)
}

// FalseSquashPct returns the percentage of squashes that were false
// positives (Table 7 "Sq (%)").
func (r *Result) FalseSquashPct() float64 {
	if r.Stats.Squashes == 0 {
		return 0
	}
	return 100 * float64(r.Stats.FalseSquashes) / float64(r.Stats.Squashes)
}

// FalseInvPerCommit returns the average aliased invalidations per commit
// (Table 7 "False Inv/Com").
func (r *Result) FalseInvPerCommit() float64 {
	if r.Stats.Commits == 0 {
		return 0
	}
	return float64(r.Stats.FalseInvalidations) / float64(r.Stats.Commits)
}

// SafeWBPerTxn returns the average Set Restriction writebacks per
// committed transaction (Table 7 "Safe WB/Tr").
func (r *Result) SafeWBPerTxn() float64 {
	if r.Stats.Commits == 0 {
		return 0
	}
	return float64(r.Stats.SafeWritebacks) / float64(r.Stats.Commits)
}
