// Package tls is the thread-level-speculation runtime: it executes a
// sequential program, decomposed into ordered tasks, on a simulated
// multiprocessor under Eager, Lazy, or Bulk disambiguation.
//
// TLS differs from TM in three ways the paper leans on (Section 6.3):
// tasks have a fixed total order and commit in that order; speculative
// tasks may read speculative data forwarded from their predecessors; and a
// squash cascades to all more-speculative tasks. Bulk additionally supports
// Partial Overlap: a shadow write signature started at first-child spawn,
// so the child is not squashed for live-ins the parent produced before
// spawning it.
//
// Processors are multi-versioned: a processor whose task has finished but
// cannot yet commit (load imbalance) may start the next task, keeping the
// old task's state in its cache guarded by the old version's signatures —
// the case that motivates the paper's multi-version BDM and the Set
// Restriction's write-write conflicts (Table 6).
//
// Correctness is checked end to end: the final committed memory must equal
// a purely sequential execution of the task list.
package tls

import (
	"bulk/internal/bus"
	"bulk/internal/core"
	"bulk/internal/mem"
	"bulk/internal/sim"
)

// Scheme selects the disambiguation mechanism.
type Scheme int

const (
	// Eager propagates each write through the coherence protocol as it
	// happens; violations are detected at the write, exactly.
	Eager Scheme = iota
	// Lazy disambiguates exact address sets at task commit. It includes
	// the exact-information equivalent of Partial Overlap, as the paper's
	// Lazy baseline does.
	Lazy
	// Bulk disambiguates write signatures at task commit (the paper).
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

// Options configures a TLS run: the shared machine options (Table 5 TLS
// defaults: 16 KB 4-way L1s, sim.DefaultTLS timing, the word-granularity
// sig.DefaultTLS signature) plus the speculation policy.
type Options struct {
	core.Config
	Scheme Scheme
	// Procs is the number of processors (Table 5: 4).
	Procs int
	// PartialOverlap enables the shadow-signature optimization for Bulk
	// (Section 6.3). Lazy always uses its exact equivalent; the flag is
	// ignored for Eager.
	PartialOverlap bool
	// LineGranularity makes Bulk signatures encode line addresses instead
	// of word addresses: cheaper membership tests, but two tasks writing
	// different words of one line now conflict (the false-sharing cost
	// Section 4.4's fine-grain support removes). Ablation only.
	LineGranularity bool
	// MaxVersions is the number of task versions a processor can hold
	// (>= 1; 2 lets a processor run ahead of an uncommitted task).
	MaxVersions int
}

// NewOptions returns the paper's defaults for a scheme (Partial Overlap on
// for Bulk, since the paper's baseline Bulk includes it).
func NewOptions(s Scheme) Options {
	return Options{
		Config:         core.Config{Params: sim.DefaultTLS()},
		Scheme:         s,
		Procs:          4,
		PartialOverlap: s != Eager,
		MaxVersions:    2,
	}
}

// defaults is the Table 5 TLS machine the options fall back on.
var defaults = core.Config{Params: sim.DefaultTLS(), CacheBytes: 16 << 10, CacheWays: 4, RestartLimit: 1000}

// Stats aggregates a TLS run's measurements (Table 6).
type Stats struct {
	// Commits is the number of committed tasks (= number of tasks).
	Commits uint64
	// Squashes counts task squashes, including cascaded ones.
	Squashes uint64
	// CascadeSquashes is the subset of Squashes that were children
	// squashed along with a violating ancestor, not direct violations.
	CascadeSquashes uint64
	// FalseSquashes counts direct squashes with no exact-address overlap
	// (signature aliasing only; Bulk).
	FalseSquashes uint64
	// DepSetWords accumulates exact dependence-set sizes over real
	// squashes (Table 6 "Dep Set Size", words).
	DepSetWords uint64
	// FalseInvalidations counts lines invalidated at commits that the
	// committer did not actually write ("False Inv/Com").
	FalseInvalidations uint64
	// ReadSetWords/WriteSetWords accumulate committed tasks' footprints.
	ReadSetWords  uint64
	WriteSetWords uint64
	// SafeWritebacks counts Set Restriction writebacks (Bulk).
	SafeWritebacks uint64
	// WrWrConflicts counts Set Restriction (0,1) conflicts that squashed
	// the more speculative task (Table 6 "Wr-Wr Cnf/1k Tasks").
	WrWrConflicts uint64
	// Merges counts word-granularity line merges at commit (Section 4.4).
	Merges uint64
	// StallCycles accumulates processor idle time waiting for commit
	// tokens or spawnable tasks.
	StallCycles int64
	// Cycles is the total simulated run time.
	Cycles int64
	// Bandwidth is the bus traffic breakdown.
	Bandwidth bus.Bandwidth
	// LivelockDetected is set when RestartLimit was exceeded.
	LivelockDetected bool
}

// Result is a completed TLS run.
type Result struct {
	Stats  Stats
	Memory *mem.Memory
}

// AvgReadSetWords returns the mean committed read footprint in words.
func (r *Result) AvgReadSetWords() float64 {
	if r.Stats.Commits == 0 {
		return 0
	}
	return float64(r.Stats.ReadSetWords) / float64(r.Stats.Commits)
}

// AvgWriteSetWords returns the mean committed write footprint in words.
func (r *Result) AvgWriteSetWords() float64 {
	if r.Stats.Commits == 0 {
		return 0
	}
	return float64(r.Stats.WriteSetWords) / float64(r.Stats.Commits)
}

// AvgDepSetWords returns the mean dependence-set size over direct real
// squashes.
func (r *Result) AvgDepSetWords() float64 {
	direct := r.Stats.Squashes - r.Stats.CascadeSquashes
	if direct <= r.Stats.FalseSquashes {
		return 0
	}
	return float64(r.Stats.DepSetWords) / float64(direct-r.Stats.FalseSquashes)
}

// FalseSquashPct returns the percentage of direct squashes due to aliasing.
func (r *Result) FalseSquashPct() float64 {
	direct := r.Stats.Squashes - r.Stats.CascadeSquashes
	if direct == 0 {
		return 0
	}
	return 100 * float64(r.Stats.FalseSquashes) / float64(direct)
}

// FalseInvPerCommit returns aliased invalidations per commit.
func (r *Result) FalseInvPerCommit() float64 {
	if r.Stats.Commits == 0 {
		return 0
	}
	return float64(r.Stats.FalseInvalidations) / float64(r.Stats.Commits)
}

// SafeWBPerTask returns Set Restriction writebacks per committed task.
func (r *Result) SafeWBPerTask() float64 {
	if r.Stats.Commits == 0 {
		return 0
	}
	return float64(r.Stats.SafeWritebacks) / float64(r.Stats.Commits)
}

// WrWrPer1kTasks returns Set Restriction write-write conflicts per 1000
// committed tasks.
func (r *Result) WrWrPer1kTasks() float64 {
	if r.Stats.Commits == 0 {
		return 0
	}
	return 1000 * float64(r.Stats.WrWrConflicts) / float64(r.Stats.Commits)
}
