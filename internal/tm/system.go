package tm

import (
	"errors"
	"fmt"

	"bulk/internal/bdm"
	"bulk/internal/cache"
	"bulk/internal/core"
	"bulk/internal/mem"
	"bulk/internal/sig"
	"bulk/internal/sim"
	"bulk/internal/trace"
	"bulk/internal/workload"
)

// section is one closed-nesting section of the currently running
// transaction: its own footprint — a write-buffer layer, exact sets, and
// (Bulk) BDM version — plus the executor checkpoint taken at its start
// (Figure 8).
type section struct {
	core.Footprint
	startOp  int
	lastRead uint64 // executor register at section start
}

// procRun is a processor's scalar run state. Reset writes it whole, so
// every scalar of a proc belongs here.
type procRun struct {
	exec trace.Executor

	segIdx int
	opIdx  int
	done   bool

	txnStart      int64
	attempts      int
	lastPreemptOp int
	// stalledOn is the processor whose transaction this one waits on in
	// an Eager stall, or -1.
	stalledOn int
}

// proc is one simulated processor and the thread pinned to it.
type proc struct {
	id     int // immutable processor identity fixed at construction
	cache  *cache.Cache
	module *bdm.Module // Bulk only
	over   *mem.OverflowArea
	procRun

	// sections is the open transaction's section stack, empty outside a
	// transaction.
	sections []*section
	// Context-switch state (nil when not preempted).
	preempt *preemptState
	// pairSquash counts, per aggressor processor id, the squashes this
	// proc suffered from it, for the footnote-2 fix.
	pairSquash []int
}

// inTxn reports whether p is inside a transaction.
func (p *proc) inTxn() bool { return len(p.sections) > 0 }

// System is a TM run in progress: the policy on an embedded core.Machine.
type System struct {
	core.Machine[Result]
	opts  Options
	w     *workload.TMWorkload
	procs []*proc

	stats Stats
	log   []CommitUnit
	// res is Judge's result buffer, assembled once a run completes.
	res Result
	// oracle is Judge's serial replay, whose storage every judged run
	// reuses.
	oracle oracle

	// commitWC is the reusable broadcast signature for multi-section Bulk
	// commits (single-section commits broadcast the section's W directly).
	commitWC *sig.Signature

	// keyScratch is the reusable sorted-key buffer for the commit's clean
	// downgrade and stale-copy check, and the preemption spill.
	keyScratch []uint64
	// union is a nested committer's sections merged into one footprint
	// for the duration of its commit.
	union core.Footprint
}

// NewSystem prepares a run of workload w under the given options.
func NewSystem(w *workload.TMWorkload, opts Options) (*System, error) {
	if len(w.Threads) == 0 {
		return nil, errors.New("tm: empty workload")
	}
	if opts.PartialRollback && opts.Scheme != Bulk {
		return nil, errors.New("tm: partial rollback requires the Bulk scheme")
	}
	if opts.SpillOnPreempt && opts.Scheme != Bulk {
		return nil, errors.New("tm: signature spilling requires the Bulk scheme")
	}
	if opts.WordGranularity && opts.Scheme != Bulk {
		return nil, errors.New("tm: word granularity requires the Bulk scheme")
	}
	opts.SetDefaults(defaults)
	switch {
	case opts.SigConfig != nil:
	case opts.WordGranularity:
		opts.SigConfig = sig.WordTM()
	default:
		opts.SigConfig = sig.DefaultTM()
	}
	s := &System{opts: opts, w: w}
	var bulk *core.BDM
	if opts.Scheme == Bulk {
		// One version per nesting depth; 4 slots covers the 2–3 section
		// nests the workloads generate.
		bulk = &core.BDM{Versions: 4, Words: opts.WordGranularity}
	}
	if err := s.Init(&s.opts.Config, len(w.Threads), bulk, s); err != nil {
		return nil, fmt.Errorf("tm: %w", err)
	}
	for i := range w.Threads {
		p := &proc{
			id:         i,
			cache:      s.Caches[i],
			over:       mem.NewOverflowArea(),
			pairSquash: make([]int, len(w.Threads)),
		}
		if bulk != nil {
			p.module = s.Modules[i]
		}
		s.procs = append(s.procs, p)
	}
	s.Reset()
	return s, nil
}

// ResetPolicy implements core.Policy: it writes the transactional run
// state a just-built system starts from — no open section, no preemption,
// empty overflow areas, zero counters and an empty commit log — keeping
// every buffer's storage. Section structs stay in the stack's backing
// array, where pushSection recycles them.
func (s *System) ResetPolicy() {
	s.stats = Stats{}
	s.log = s.log[:0]
	s.res = Result{}
	for _, p := range s.procs {
		p.procRun = procRun{exec: trace.Executor{ThreadID: p.id}, stalledOn: -1}
		p.over.Reset()
		clear(p.pairSquash)
		p.sections = p.sections[:0]
		p.preempt = nil
	}
}

// Run executes the workload to completion and returns the result.
func Run(w *workload.TMWorkload, opts Options) (*Result, error) {
	s, err := NewSystem(w, opts)
	if err != nil {
		return nil, err
	}
	return s.Machine.Run()
}

// Tick implements core.Policy: one scheduling quantum, picking a
// processor and stepping it. It reports running=false when the workload
// completed (or livelock tripped), and an error on deadlock.
func (s *System) Tick() (running bool, err error) {
	if s.stats.LivelockDetected {
		return false, nil
	}
	p := s.Engine.Next()
	if p < 0 {
		// Everyone parked: done if all finished; otherwise deadlock.
		alldone := true
		for _, q := range s.procs {
			if !q.done {
				alldone = false
			}
		}
		if alldone {
			return false, nil
		}
		return false, errors.New("tm: deadlock — all processors parked with work remaining")
	}
	if s.procs[p].done {
		s.Engine.Park(p)
		return true, nil
	}
	s.step(s.procs[p])
	return true, nil
}

// Collect implements core.Policy: it assembles the result of a completed
// run, adding the Set Restriction and overflow-area totals.
func (s *System) Collect(res *Result, t core.Totals) {
	st := s.stats
	st.Cycles = t.Cycles
	st.Bandwidth = t.Bandwidth
	st.SafeWritebacks += t.SafeWritebacks
	for _, p := range s.procs {
		os := p.over.Stats()
		st.OverflowAccesses += os.Spills + os.Fetches + os.DisambiguationAccesses + os.Deallocs
	}
	*res = Result{Stats: st, Memory: s.Mem, Log: s.log}
}

// Judge finishes a completed run, digests its observable outcome — the
// commit log, committed memory and headline counters — into d, and checks
// it against the serial replay in commit order.
func (s *System) Judge(d *core.Digest) error {
	r := s.FinishInto(&s.res)
	for _, u := range r.Log {
		d.Mix(uint64(u.Thread), uint64(u.Segment), uint64(u.OpLo), uint64(u.OpHi))
	}
	s.DigestMemory(d)
	d.Mix(r.Stats.Commits, r.Stats.Squashes, uint64(r.Stats.Cycles))
	return s.oracle.check(s.w, r)
}

// step performs one scheduling quantum for p: begin a transaction, execute
// one op, or commit.
func (s *System) step(p *proc) {
	segs := s.w.Threads[p.id].Segments
	if p.segIdx >= len(segs) {
		p.done = true
		s.Engine.Park(p.id)
		return
	}
	seg := &segs[p.segIdx]

	if seg.Txn && !p.inTxn() {
		s.beginTxn(p, seg)
		// Beginning costs a cycle; the first op runs next quantum.
		s.Engine.Advance(p.id, 1)
		return
	}

	if p.opIdx >= len(seg.Ops) {
		if seg.Txn {
			// Commit-token decision: an explorer may defer the commit one
			// quantum, reordering it against other processors' actions.
			if s.Engine.Branch(sim.BranchCommit, 2, 1) == 0 {
				s.Engine.Advance(p.id, 1)
				return
			}
			s.commit(p, seg)
		} else {
			p.segIdx++
			p.opIdx = 0
			s.Engine.Advance(p.id, 1)
		}
		return
	}

	// Context switches: pause, wait out the pause, then resume.
	if p.preempt != nil {
		if s.Engine.Now() < p.preempt.resumeAt {
			s.Engine.AdvanceTo(p.id, p.preempt.resumeAt)
			return
		}
		s.resumePreempted(p)
		s.Engine.Advance(p.id, 1)
		return
	}
	if seg.Txn && s.maybePreempt(p) {
		s.stats.Preemptions++
		s.Engine.AdvanceTo(p.id, p.preempt.resumeAt)
		return
	}

	op := seg.Ops[p.opIdx]
	// Section advance: entering a new nested section checkpoints state.
	if seg.Txn && s.opts.PartialRollback {
		s.maybeEnterSection(p, seg)
	}
	cost, ok := s.executeOp(p, seg, op)
	if !ok {
		// The op could not complete (Eager stall); p is parked and will
		// retry this op when unparked.
		return
	}
	p.opIdx++
	s.Engine.Advance(p.id, int(op.Think)+cost)
}

// beginTxn starts the transaction at p's current segment by opening its
// first section. The executor's dependence register is reset so a
// transaction's semantics depend only on reads made inside it — this makes
// the serial replay of Verify exact.
func (s *System) beginTxn(p *proc, seg *workload.TMSegment) {
	p.txnStart = s.Engine.Now()
	p.opIdx = 0
	p.lastPreemptOp = -1
	p.exec.Reset()
	s.pushSection(p, 0)
}

// pushSection opens a nesting section starting at op index startOp. Section
// structs are recycled through the sections slice's backing array (commit,
// squash and Reset truncate with [:0] rather than dropping it), so the
// write buffers and exact sets keep their capacity from one transaction to
// the next. A recycled section is reset here, field by field.
func (s *System) pushSection(p *proc, startOp int) {
	n := len(p.sections)
	sec := p.growSections()
	sec.startOp = startOp
	sec.Footprint.Reset()
	sec.Version = nil
	sec.lastRead = p.exec.LastRead()
	if p.module != nil {
		v, err := p.module.AllocVersion(p.id*16 + n)
		if err != nil {
			// Out of version slots: flatten into the innermost section.
			// (Only reachable with deep nesting; the workloads nest ≤3.)
			sec.Version = p.sections[n-1].Version
		} else {
			sec.Version = v
			p.module.SetRunning(v)
		}
	}
}

// growSections extends the section stack by one, reusing the section
// struct left in the backing array past the current length when there is
// one.
func (p *proc) growSections() *section {
	n := len(p.sections)
	if n < cap(p.sections) {
		p.sections = p.sections[:n+1]
		if sec := p.sections[n]; sec != nil {
			return sec
		}
	}
	sec := &section{}
	p.sections = append(p.sections[:n], sec)
	return sec
}

// maybeEnterSection opens the next nested section when execution crosses
// its boundary.
func (s *System) maybeEnterSection(p *proc, seg *workload.TMSegment) {
	next := len(p.sections)
	if next < len(seg.Sections) && p.opIdx == seg.Sections[next] {
		s.pushSection(p, p.opIdx)
	}
}

// top returns the innermost open section.
func (p *proc) top() *section { return p.sections[len(p.sections)-1] }

// masks returns the masks of line joined across the open sections: the
// exact-set query of the whole transaction, one probe per section. It runs
// on the per-access path.
//
//bulklint:noalloc
func (p *proc) masks(line uint64) (m core.Masks) {
	for _, sec := range p.sections {
		sm := sec.Line(line)
		m.R |= sm.R
		m.W |= sm.W
	}
	return m
}
