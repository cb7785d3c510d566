package tm

import (
	"bulk/internal/bdm"
	"bulk/internal/bus"
	"bulk/internal/cache"
	"bulk/internal/core"
	"bulk/internal/mutate"
	"bulk/internal/sig"
	"bulk/internal/sim"
)

// Context-switch support (Section 6.2.2, second half): a running
// transaction can be preempted mid-flight. Its R and W signatures stay in
// the BDM (or are spilled to memory when configured), its speculative
// dirty lines stay in the cache guarded by OR(δ(W_pre)), and remote
// commits keep disambiguating against it. While the thread is descheduled,
// an unrelated interloper process runs on the processor, touching the
// cache: it may evict speculative lines to the overflow area, and its
// writes must respect the Set Restriction — a non-speculative write into a
// set owned by the preempted version is forced to write through without
// allocating, so the preempted thread's dirty lines survive.

// preemptState tracks a paused transaction on a processor.
type preemptState struct {
	resumeAt int64
	// spilled holds the signatures while they live "in memory"; nil when
	// the BDM kept them. One entry per section.
	spilled []*bdmSpill
	// doomed is set when a remote commit conflicted with the spilled
	// signatures; the transaction restarts at resume.
	doomed bool
}

// bdmSpill is one section's spilled version: the runtime disambiguates
// against its saved signatures directly, as the paper describes for
// out-of-signature conditions.
type bdmSpill struct {
	sv  *bdm.SpilledVersion
	sec *section
}

// maybePreempt pauses p's transaction if the preemption policy triggers at
// this op boundary. Returns whether a preemption started. A scheduler may
// override the policy either way: suppress a due preemption or inject one
// at a boundary the policy would skip.
func (s *System) maybePreempt(p *proc) bool {
	o := s.opts
	if o.PreemptEvery <= 0 || !p.inTxn() || p.opIdx == 0 {
		return false
	}
	if p.opIdx == p.lastPreemptOp {
		return false // this boundary already fired; execution resumes
	}
	def := 0
	if p.opIdx%o.PreemptEvery == 0 {
		def = 1
	}
	if s.Engine.Branch(sim.BranchPreempt, 2, def) == 0 {
		if def == 1 {
			// A suppressed policy boundary must not fire on a later pass
			// over the same op (e.g. after a stall retry).
			p.lastPreemptOp = p.opIdx
		}
		return false
	}
	p.lastPreemptOp = p.opIdx
	pause := o.PreemptPause
	if pause <= 0 {
		pause = 500
	}
	ps := &preemptState{resumeAt: s.Engine.Now() + int64(pause)}

	if p.module != nil {
		p.module.SetRunning(nil)
		if o.SpillOnPreempt {
			for _, sec := range p.sections {
				ps.spilled = append(ps.spilled, &bdmSpill{sv: p.module.SpillVersion(sec.Version), sec: sec})
				sec.Version = nil
				// The version's dirty cache lines lose their BDM guard;
				// the paper moves them to the overflow area.
				s.spillDirtyLines(p, sec)
			}
		}
	}
	p.preempt = ps
	s.runInterloper(p)
	return true
}

// spillDirtyLines moves a section's dirty cached lines to the overflow
// area (the cache no longer knows who owns them once the signatures left
// the BDM).
func (s *System) spillDirtyLines(p *proc, sec *section) {
	s.keyScratch = sec.SortedLines(s.keyScratch[:0], core.Writes)
	for _, line := range s.keyScratch {
		cl := p.cache.Lookup(cache.LineAddr(line))
		if cl == nil || cl.State != cache.Dirty {
			continue
		}
		mask, words := s.gatherSpill(p, line)
		p.over.Spill(line, mask, words)
		p.cache.Invalidate(cache.LineAddr(line))
		s.Bus.Record(bus.UB, bus.WritebackBytes)
	}
}

// runInterloper models the unrelated process that runs during the pause:
// a burst of non-speculative accesses against p's cache. Its writes honor
// the Set Restriction by writing through when a preempted speculative
// version owns the target set.
func (s *System) runInterloper(p *proc) {
	const accesses = 24
	// A deterministic private stream well away from the workloads.
	base := uint64(1<<25) + uint64(p.id)<<12
	for i := 0; i < accesses; i++ {
		word := base + uint64((p.opIdx*31+i*7)%(1<<10))
		line := core.LineOf(word)
		set := p.cache.SetIndex(cache.LineAddr(line))
		write := i%3 == 0
		if write && p.module != nil && p.module.OwnsDirtySet(set) {
			// Set Restriction: write through, no allocation. (The
			// interloper's values are architecturally irrelevant to the
			// verified workload — its stream is private — so only the
			// traffic and the cache perturbation are modeled.)
			s.stats.InterloperWriteThroughs++
			s.Bus.Record(bus.WB, bus.WritebackBytes)
			continue
		}
		if p.cache.Lookup(cache.LineAddr(line)) == nil {
			s.insertLine(p, line, cache.Clean)
			s.Bus.Record(bus.Fill, bus.FillBytes)
		}
		if write {
			p.cache.MarkDirty(cache.LineAddr(line))
		}
	}
}

// disambiguateSpilled checks an incoming commit by c, with footprint u,
// against p's spilled signatures (the in-memory disambiguation of Section
// 6.2.2). A hit dooms the paused transaction.
func (s *System) disambiguateSpilled(c, p *proc, wc *sig.Signature, u *core.Footprint) {
	if p.preempt == nil || len(p.preempt.spilled) == 0 || p.preempt.doomed {
		return
	}
	s.Bus.Record(bus.UB, bus.HeaderBytes+len(p.preempt.spilled)*bus.AddrBytes)
	hitIdx := -1
	for i, sp := range p.preempt.spilled {
		if wc.Intersects(sp.sv.R) || wc.Intersects(sp.sv.W) {
			hitIdx = i
			break
		}
	}
	if s.opts.Mutate.Has(mutate.SkipSpilledDisambiguation) {
		hitIdx = -1
	}
	if s.opts.Probe != nil {
		s.opts.Probe.EmitConflict(sim.ConflictEvent{
			Path: sim.PathSpilled, Committer: c.id, Receiver: p.id,
			SigHit: hitIdx >= 0, ExactHit: s.spilledExactHit(p, u),
		})
	}
	if hitIdx < 0 {
		return
	}
	sp := p.preempt.spilled[hitIdx]
	p.preempt.doomed = true
	dep := uint64(u.Overlap(sp.sec.Line, false).Lines)
	s.stats.Squashes++
	if dep == 0 {
		s.stats.FalseSquashes++
	} else {
		s.stats.DepSetLines += dep
	}
}

// spilledExactHit computes the exact ground truth for a commit-vs-spilled
// disambiguation at the signatures' own granularity, so an unmutated run
// can never look unsound (the signatures are supersets of these sets): the
// committer's written words, or lines, against each spilled section's read
// and written ones.
func (s *System) spilledExactHit(p *proc, u *core.Footprint) bool {
	for _, sp := range p.preempt.spilled {
		o := u.Overlap(sp.sec.Line, false)
		if o.Words > 0 || o.Lines > 0 && !s.opts.WordGranularity {
			return true
		}
	}
	return false
}

// resumePreempted reinstates a paused transaction: reload the spilled
// signatures into BDM slots (or restart outright if the transaction was
// doomed while descheduled).
func (s *System) resumePreempted(p *proc) {
	ps := p.preempt
	p.preempt = nil
	if ps.doomed {
		s.stats.DoomedOnResume++
		s.restartDoomed(p)
		return
	}
	if p.module != nil {
		if len(ps.spilled) > 0 {
			for _, sp := range ps.spilled {
				v, err := p.module.ReloadVersion(sp.sv)
				if err != nil {
					// No slot available on reload: restart the whole
					// transaction (rare; MaxVersions covers the nests the
					// workloads build).
					s.restartDoomed(p)
					return
				}
				sp.sec.Version = v
				// ClearVersion dropped the sticky O bit when the signatures
				// left the BDM, and spillDirtyLines moved this section's
				// dirty lines to the overflow area; without the bit the
				// miss-path filter would refetch them as stale committed
				// memory.
				if !p.over.Empty() {
					p.module.NoteOverflow(v)
				}
			}
		}
		p.module.SetRunning(p.top().Version)
	}
}

// restartDoomed aborts a paused transaction that was invalidated while
// descheduled: its buffered state is discarded and execution resumes at
// the transaction's start.
func (s *System) restartDoomed(p *proc) {
	s.discardTxn(p)
	s.Engine.Advance(p.id, s.opts.Params.SquashOverhead)
}
