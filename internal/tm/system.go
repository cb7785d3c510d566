package tm

import (
	"errors"
	"fmt"

	"bulk/internal/bdm"
	"bulk/internal/cache"
	"bulk/internal/core"
	"bulk/internal/flatmap"
	"bulk/internal/mem"
	"bulk/internal/sig"
	"bulk/internal/sim"
	"bulk/internal/trace"
	"bulk/internal/workload"
)

// section is one closed-nesting section of the currently running
// transaction: its own write-buffer layer, exact sets, and (Bulk) BDM
// version, plus the executor checkpoint taken at its start (Figure 8).
//
//bulklint:snapstate
type section struct {
	startOp  int
	wbuf     flatmap.Map[uint64] // word addr -> speculative value
	readL    flatmap.Set         // exact line sets
	writeL   flatmap.Set
	readW    flatmap.Set  // exact read words (word-granularity truth)
	version  *bdm.Version // Bulk only
	lastRead uint64       // executor register at section start
}

// proc is one simulated processor and the thread pinned to it.
//
//bulklint:snapstate
type proc struct {
	//bulklint:snapstate-ignore id immutable processor identity fixed at construction
	id int
	//bulklint:snapstate-ignore cache core-owned; the machine's snapshot envelope captures it
	cache  *cache.Cache
	module *bdm.Module // Bulk only
	over   *mem.OverflowArea
	exec   trace.Executor

	segIdx int
	opIdx  int
	done   bool

	inTxn    bool
	txnStart int64
	attempts int
	sections []*section

	// Context-switch state (nil when not preempted).
	preempt       *preemptState
	lastPreemptOp int

	// Eager stall bookkeeping.
	stalledOn int   // processor id we are waiting on, or -1
	waiters   []int // processors stalled on our transaction
	// pairSquash counts mutual squashes between this proc (as victim)
	// and each aggressor, for the footnote-2 fix.
	pairSquash map[int]int
}

// System is a TM run in progress: the policy on an embedded core.Machine.
//
//bulklint:snapstate
type System struct {
	core.Machine[Result]
	//bulklint:snapstate-ignore opts immutable run configuration
	opts Options
	//bulklint:snapstate-ignore w immutable workload shared across schedules
	w     *workload.TMWorkload
	procs []*proc

	stats Stats
	log   []CommitUnit
	real  uint64 // real (non-false) squashes
	//bulklint:snapstate-ignore res Judge's result buffer, assembled once a run completes
	res Result

	// commitWC is the reusable broadcast signature for multi-section Bulk
	// commits (single-section commits broadcast the section's W directly).
	//
	//bulklint:snapstate-ignore commitWC commit-path scratch dead between quanta
	commitWC *sig.Signature

	// spillWords is the reusable word buffer for overflow-area spills
	// (accesses are serialized, so one buffer serves every proc).
	//
	//bulklint:snapstate-ignore spillWords spill scratch dead between quanta
	spillWords [core.WordsPerLine]mem.Word
	// keyScratch is the reusable sorted-key buffer for write-buffer
	// iteration on the commit path.
	//
	//bulklint:snapstate-ignore keyScratch commit-path scratch dead between quanta
	keyScratch []uint64
	// wlScratch/rlScratch hold the committer's write/read line unions for
	// the duration of a commit; sqScratch and sqKeys serve squash paths,
	// which can run while a commit's unions are still live.
	//
	//bulklint:snapstate-ignore wlScratch commit-path scratch dead between quanta
	//bulklint:snapstate-ignore rlScratch commit-path scratch dead between quanta
	wlScratch, rlScratch flatmap.Set
	//bulklint:snapstate-ignore sqScratch squash-path scratch dead between quanta
	sqScratch flatmap.Set
	//bulklint:snapstate-ignore sqKeys squash-path scratch dead between quanta
	sqKeys []uint64
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
		// Word addresses over the TM cache: the 128-set index lives in
		// word-address bits 4..10, so the permutation brings those bits
		// (plus some offset bits) into the first S14 chunk, keeping the δ
		// decode exact.
		perm := []int{4, 5, 6, 7, 8, 9, 10, 0, 1, 2, 3, 11, 12, 13, 14, 15, 16, 17, 18, 19}
		opts.SigConfig = sig.MustConfig("S14w", []int{10, 10}, perm, 30)
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
			exec:       trace.Executor{ThreadID: i},
			stalledOn:  -1,
			pairSquash: map[int]int{},
		}
		if bulk != nil {
			p.module = s.Modules[i]
		}
		s.procs = append(s.procs, p)
	}
	return s, nil
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
	st.SetConflicts += t.SetConflicts
	for _, p := range s.procs {
		os := p.over.Stats()
		st.OverflowAccesses += os.Spills + os.Fetches + os.DisambiguationAccesses + os.Deallocs
	}
	*res = Result{Stats: st, Memory: s.Mem, Log: s.log, RealSquashes: s.real}
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
	return Verify(s.w, r)
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

	if seg.Txn && !p.inTxn {
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

// beginTxn starts the transaction at p's current segment. The executor's
// dependence register is reset so a transaction's semantics depend only on
// reads made inside it — this makes the serial replay of Verify exact.
func (s *System) beginTxn(p *proc, seg *workload.TMSegment) {
	p.inTxn = true
	p.txnStart = s.Engine.Now()
	p.opIdx = 0
	p.lastPreemptOp = -1
	p.exec.Reset()
	p.sections = p.sections[:0]
	s.pushSection(p, 0)
}

// pushSection opens a nesting section starting at op index startOp. Section
// structs are recycled through the sections slice's backing array (commit
// and squash truncate with [:0] rather than dropping it), so the write
// buffers and exact sets keep their capacity from one transaction to the
// next.
func (s *System) pushSection(p *proc, startOp int) {
	n := len(p.sections)
	sec := p.growSections()
	sec.startOp = startOp
	sec.wbuf.Reset()
	sec.readL.Reset()
	sec.writeL.Reset()
	sec.readW.Reset()
	sec.version = nil
	sec.lastRead = p.exec.LastRead()
	if p.module != nil {
		v, err := p.module.AllocVersion(p.id*16 + n)
		if err != nil {
			// Out of version slots: flatten into the innermost section.
			// (Only reachable with deep nesting; the workloads nest ≤3.)
			sec.version = p.sections[n-1].version
		} else {
			sec.version = v
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

// readLines / writeLines iterate exact sets across sections.
//
//bulklint:noalloc
func (p *proc) inReadSet(line uint64) bool {
	for _, sec := range p.sections {
		if sec.readL.Has(line) {
			return true
		}
	}
	return false
}

//bulklint:noalloc
func (p *proc) inWriteSet(line uint64) bool {
	for _, sec := range p.sections {
		if sec.writeL.Has(line) {
			return true
		}
	}
	return false
}

// readWord/wroteWord are the word-granularity exact-set queries.
//
//bulklint:noalloc
func (p *proc) readWord(w uint64) bool {
	for _, sec := range p.sections {
		if sec.readW.Has(w) {
			return true
		}
	}
	return false
}

//bulklint:noalloc
func (p *proc) wroteWord(w uint64) bool {
	for _, sec := range p.sections {
		if sec.wbuf.Has(w) {
			return true
		}
	}
	return false
}

// bufLookup searches the section write buffers innermost-first.
//
//bulklint:noalloc
func (p *proc) bufLookup(word uint64) (uint64, bool) {
	for i := len(p.sections) - 1; i >= 0; i-- {
		if v, ok := p.sections[i].wbuf.Get(word); ok {
			return v, true
		}
	}
	return 0, false
}

// unionWriteLines rebuilds dst as the union of exact write lines across
// sections. The caller supplies a reusable scratch set.
//
//bulklint:noalloc
func (p *proc) unionWriteLines(dst *flatmap.Set) *flatmap.Set {
	dst.Reset()
	for _, sec := range p.sections {
		sec.writeL.Range(func(l uint64) bool { //bulklint:allow noalloc non-escaping closure; Range never retains fn
			dst.Add(l)
			return true
		})
	}
	return dst
}

// unionReadLines rebuilds dst as the union of exact read lines.
//
//bulklint:noalloc
func (p *proc) unionReadLines(dst *flatmap.Set) *flatmap.Set {
	dst.Reset()
	for _, sec := range p.sections {
		sec.readL.Range(func(l uint64) bool { //bulklint:allow noalloc non-escaping closure; Range never retains fn
			dst.Add(l)
			return true
		})
	}
	return dst
}
