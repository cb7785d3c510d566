// Package ckpt is the checkpointed-multiprocessor runtime — the third
// environment the paper's introduction lists alongside TM and TLS
// (checkpointed processors such as CAVA/Cherry, the paper's refs [5,8,14]).
//
// A processor that would stall on a long-latency load can instead take a
// checkpoint, predict the load's value, and keep executing speculatively.
// The Bulk machinery is exactly what this needs: the speculative episode's
// reads and writes go into R and W signatures; remote writes arriving as
// invalidations are disambiguated with the membership test (a ∈ R ∨ a ∈ W
// squashes, possibly falsely due to aliasing); a failed validation or a
// conflict rolls back by bulk-invalidating the episode's dirty lines; a
// successful validation commits by broadcasting the W signature and
// clearing it — no per-line speculative state anywhere in the cache.
//
// The runtime compares three modes on the same workload:
//
//   - Stall: never speculate; pay the full miss latency every time.
//   - Exact: speculate with perfect (infinite) disambiguation state.
//   - Bulk: speculate with signatures; aliasing causes extra rollbacks.
//
// Correctness is checked like TM: committed episodes and non-speculative
// writes replay serially in commit order to the exact final memory.
package ckpt

import (
	"errors"
	"fmt"

	"bulk/internal/bdm"
	"bulk/internal/bus"
	"bulk/internal/cache"
	"bulk/internal/core"
	"bulk/internal/mem"
	"bulk/internal/rng"
	"bulk/internal/sig"
	"bulk/internal/sim"
	"bulk/internal/trace"
	"bulk/internal/workload"
)

// Mode selects how processors handle long-latency loads.
type Mode int

const (
	// Stall waits out every long-latency load.
	Stall Mode = iota
	// Exact speculates past it with perfect disambiguation.
	Exact
	// Bulk speculates with address signatures.
	Bulk
)

func (m Mode) String() string {
	switch m {
	case Stall:
		return "Stall"
	case Exact:
		return "Exact"
	case Bulk:
		return "Bulk"
	default:
		return "Mode(?)"
	}
}

// Episode is one checkpointed stretch: a long-latency load followed by ops
// the processor may execute under a predicted value.
type Episode struct {
	// MissAddr is the word whose long-latency load misses.
	MissAddr uint64
	// PredictOK tells whether the value prediction will validate.
	PredictOK bool
	// Ops execute speculatively under the prediction (the first op is
	// implicitly the long load itself; its loaded value becomes the
	// dependence register).
	Ops []trace.Op
}

// Workload is a set of per-processor episode streams, interleaved with
// non-speculative stretches.
//
// Episodes commit atomically (speculatively or via the buffered retry
// path); reads are conflict-tracked in both modes, so shared reads and
// shared writes are both safe — concurrent writers serialize in commit
// order, and any reader that observed pre-commit data restarts.
type Workload struct {
	Name  string
	Procs []ProcStream
}

// ProcStream is one processor's program: alternating plain segments and
// checkpointed episodes.
type ProcStream struct {
	// Units execute in order.
	Units []Unit
}

// Unit is either a non-speculative op run or a checkpointed episode.
type Unit struct {
	Episode *Episode // nil for a plain segment
	Plain   []trace.Op
}

// Options configures a run: the shared machine options plus the mode.
type Options struct {
	core.Config
	Mode Mode
}

// NewOptions returns defaults for a mode.
func NewOptions(m Mode) Options {
	return Options{Mode: m, Config: core.Config{Params: sim.DefaultTM()}}
}

// defaults is the machine the options fall back on: the TM machine (32 KB
// 4-way L1s, sim.DefaultTM timing) with a tighter bound on episode
// restarts.
var defaults = core.Config{Params: sim.DefaultTM(), CacheBytes: 32 << 10, CacheWays: 4, RestartLimit: 100}

// missLatency is the long-latency load's cost in cycles.
const missLatency = 400

// Stats aggregates a run's measurements.
type Stats struct {
	// Episodes is the number of committed checkpointed episodes.
	Episodes uint64
	// Rollbacks counts episode rollbacks of any cause.
	Rollbacks uint64
	// MispredictRollbacks counts rollbacks due to failed validation.
	MispredictRollbacks uint64
	// ConflictRollbacks counts rollbacks due to remote writes hitting the
	// episode's footprint.
	ConflictRollbacks uint64
	// FalseRollbacks is the subset of conflict rollbacks with no exact
	// overlap (signature aliasing; Bulk only).
	FalseRollbacks uint64
	// StallCycles is time spent waiting out long loads (Stall mode, and
	// post-rollback refetches).
	StallCycles int64
	// Cycles is the total run time.
	Cycles int64
	// Bandwidth is the bus accounting.
	Bandwidth bus.Bandwidth
}

// Result is a completed run.
type Result struct {
	Stats  Stats
	Memory *mem.Memory
	Log    []CommitUnit
}

// procRun is a processor's scalar run state. Reset writes it whole, so
// every scalar of a proc belongs here.
type procRun struct {
	exec trace.Executor

	unit, opIdx int
	done        bool

	spec      bool // a speculative episode is running
	attempts  int
	specStart int64
	// stalled marks a non-speculative episode that has paid its miss; its
	// read set is live for conflict checks until it commits.
	stalled bool
}

type proc struct {
	id     int // immutable processor identity fixed at construction
	cache  *cache.Cache
	module *bdm.Module
	procRun

	// Footprint is the episode's write buffer, exact sets and Bulk
	// version, shared by the speculative and the stalled path.
	core.Footprint
}

// System is a checkpointed-multiprocessor run in progress: the policy on
// an embedded core.Machine.
type System struct {
	core.Machine[Result]
	opts  Options
	w     *Workload
	procs []*proc
	stats Stats
	log   []CommitUnit
	// res is Judge's result buffer, assembled once a run completes.
	res Result
	// oracle is Judge's serial replay, whose storage every judged run
	// reuses.
	oracle oracle

	// lineKeys is the reusable sorted buffer of a stalled episode's
	// written lines, which its commit invalidates one by one.
	lineKeys []uint64
}

// NewSystem prepares a run.
func NewSystem(w *Workload, opts Options) (*System, error) {
	if len(w.Procs) == 0 {
		return nil, errors.New("ckpt: empty workload")
	}
	opts.SetDefaults(defaults)
	if opts.SigConfig == nil {
		opts.SigConfig = sig.DefaultTM()
	}
	s := &System{opts: opts, w: w}
	var bulk *core.BDM
	if opts.Mode == Bulk {
		bulk = &core.BDM{Versions: 1}
	}
	if err := s.Init(&s.opts.Config, len(w.Procs), bulk, s); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	for i := range w.Procs {
		p := &proc{id: i, cache: s.Caches[i]}
		if bulk != nil {
			p.module = s.Modules[i]
		}
		s.procs = append(s.procs, p)
	}
	s.Reset()
	return s, nil
}

// ResetPolicy implements core.Policy: it writes the episode state a
// just-built system starts from — every processor at its first unit with
// no episode open and an empty footprint, zero counters and an empty
// commit log — keeping every buffer's storage.
func (s *System) ResetPolicy() {
	s.stats = Stats{}
	s.log = s.log[:0]
	s.res = Result{}
	for _, p := range s.procs {
		p.procRun = procRun{exec: trace.Executor{ThreadID: p.id}}
		p.Footprint.Reset()
		p.Version = nil
	}
}

// Run executes the workload under the options.
func Run(w *Workload, opts Options) (*Result, error) {
	s, err := NewSystem(w, opts)
	if err != nil {
		return nil, err
	}
	return s.Machine.Run()
}

// Tick implements core.Policy: one scheduling quantum. It reports
// running=false when every processor finished, and an error on deadlock
// or a protocol failure.
func (s *System) Tick() (running bool, err error) {
	p := s.Engine.Next()
	if p < 0 {
		return false, errors.New("ckpt: all processors parked")
	}
	if s.procs[p].done {
		alldone := true
		for _, q := range s.procs {
			if !q.done {
				alldone = false
				break
			}
		}
		if alldone {
			return false, nil
		}
		s.Engine.Park(p)
		return true, nil
	}
	if err := s.step(s.procs[p]); err != nil {
		return false, err
	}
	return true, nil
}

// Collect implements core.Policy: it assembles the result of a completed
// run.
func (s *System) Collect(res *Result, t core.Totals) {
	*res = Result{Stats: s.stats, Memory: s.Mem, Log: s.log}
	res.Stats.Cycles = t.Cycles
	res.Stats.Bandwidth = t.Bandwidth
}

// Judge finishes a completed run, digests its observable outcome — the
// commit log, committed memory and headline counters — into d, and checks
// it against the serial-replay oracle.
func (s *System) Judge(d *core.Digest) error {
	r := s.FinishInto(&s.res)
	for _, u := range r.Log {
		d.Mix(uint64(u.Proc), uint64(u.Unit), uint64(int64(u.Op)))
	}
	s.DigestMemory(d)
	d.Mix(r.Stats.Episodes, r.Stats.Rollbacks, uint64(r.Stats.Cycles))
	return s.oracle.check(s.w, r)
}

// GenerateWorkload builds a deterministic workload: each processor runs
// episodes of speculative work over private lines plus occasional shared
// lines, separated by plain segments whose writes create the invalidation
// traffic that conflicts (and, under Bulk, aliases) with the episodes.
func GenerateWorkload(procs, episodesPerProc int, predictRate float64, seed uint64) *Workload {
	root := rng.New(seed)
	w := &Workload{Name: fmt.Sprintf("ckpt-%d", seed), Procs: make([]ProcStream, 0, procs)}
	for pi := 0; pi < procs; pi++ {
		r := root.Fork()
		units := make([]Unit, 0, 2*episodesPerProc)
		eps := make([]Episode, episodesPerProc)
		for e := range eps {
			// Plain segment: mostly private work, some shared writes.
			n := 6 + r.Intn(10)
			plain := make([]trace.Op, 0, n)
			for i := 0; i < n; i++ {
				addr := privWord(pi, r)
				if r.Bool(0.25) {
					addr = sharedWord(r)
				}
				k := trace.Read
				if r.Bool(0.35) {
					k = trace.Write
				}
				plain = append(plain, trace.Op{Kind: k, Addr: addr, Think: uint16(1 + r.Intn(3))})
			}
			units = append(units, Unit{Plain: plain})

			// Checkpointed episode: a long load of a shared word, then
			// speculative work that reads shared data (conflict-prone)
			// and writes private results derived from the loaded value.
			ep := &eps[e]
			ep.MissAddr = sharedWord(r)
			ep.PredictOK = r.Bool(predictRate)
			en := 8 + r.Intn(12)
			ep.Ops = make([]trace.Op, 0, en)
			for i := 0; i < en; i++ {
				var op trace.Op
				switch {
				case r.Bool(0.3):
					op = trace.Op{Kind: trace.Read, Addr: sharedWord(r)}
				case r.Bool(0.12):
					// Speculative update of a shared structure: the
					// source of cross-episode conflicts and, under small
					// signatures, of aliasing rollbacks.
					op = trace.Op{Kind: trace.WriteDep, Addr: sharedWord(r)}
				case r.Bool(0.4):
					op = trace.Op{Kind: trace.WriteDep, Addr: privWord(pi, r)}
				default:
					op = trace.Op{Kind: trace.Read, Addr: privWord(pi, r)}
				}
				op.Think = uint16(2 + r.Intn(4))
				ep.Ops = append(ep.Ops, op)
			}
			units = append(units, Unit{Episode: ep})
		}
		w.Procs = append(w.Procs, ProcStream{Units: units})
	}
	return w
}

// Address helpers reuse the TM layout discipline: private heaps
// discriminated in both S14 chunks, shared objects scattered.
func privWord(tid int, r *rng.Rand) uint64 {
	line := uint64(1<<20) | 1<<9 | uint64(tid&7)<<17 |
		uint64(r.Intn(1<<7))<<10 | uint64(r.Intn(1<<9))
	return line*16 + uint64(r.Intn(16))
}

// sharedPool is the number of shared objects processors contend on.
const sharedPool = 192

func sharedWord(r *rng.Rand) uint64 {
	line := workload.TMSharedObjectLine(r.Intn(sharedPool))
	return line*16 + uint64(r.Intn(16))
}
