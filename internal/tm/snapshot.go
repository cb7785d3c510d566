package tm

import (
	"bulk/internal/core"
	"bulk/internal/mem"
	"bulk/internal/sig"
)

// The machine's snapshot envelope (core.Machine.Snapshot/Restore) captures
// memory, engine, bus counters, caches and BDM version tables; SavePolicy
// and LoadPolicy add the transactional state — section stacks with their
// footprints, overflow areas, preemption, stats and the commit log.
// Scratch buffers (commit unions, spill staging) are dead between quanta
// and are deliberately not captured.

// secState is the deep-copied state of one transaction section. Its
// footprint records the BDM version by module table index, so flattened
// sections (nesting overflow) share an index exactly as they shared a
// version.
//
//bulklint:snapstate
type secState struct {
	core.FootprintState
	startOp  int
	lastRead uint64
}

// spillState holds one spilled section's signatures (preemption with
// SpillOnPreempt only — rare, so these clone rather than pool).
//
//bulklint:snapstate
type spillState struct {
	r, w   *sig.Signature
	secIdx int
}

// preemptSnap captures preemptState by value.
//
//bulklint:snapstate
type preemptSnap struct {
	valid    bool
	resumeAt int64
	doomed   bool
	spilled  []spillState
}

// procState is the deep-copied state of one processor: its run-state
// value, copied whole, and deep copies of its containers.
//
//bulklint:snapstate
type procState struct {
	procRun
	over       *mem.OverflowArea
	pairSquash []int
	sections   []secState
	nSections  int
	preempt    preemptSnap
}

// policyState is the transactional state of a snapshot. The zero value
// grows on first capture; re-capturing into it reuses its storage.
//
//bulklint:snapstate
type policyState struct {
	stats Stats
	log   []CommitUnit
	procs []procState
}

// SavePolicy implements core.Policy: it captures the transactional state
// into dst (a *policyState, or nil to allocate one).
//
//bulklint:captures snapshot
//bulklint:captures snapshot policyState procState secState spillState preemptSnap proc section
func (s *System) SavePolicy(dst any) any {
	st, _ := dst.(*policyState)
	if st == nil {
		st = &policyState{}
	}
	st.stats = s.stats
	st.log = append(st.log[:0], s.log...)
	for len(st.procs) < len(s.procs) {
		st.procs = append(st.procs, procState{})
	}
	for i, p := range s.procs {
		ps := &st.procs[i]
		ps.procRun = p.procRun
		if ps.over == nil {
			ps.over = mem.NewOverflowArea()
		}
		ps.over.CopyFrom(p.over)
		ps.pairSquash = append(ps.pairSquash[:0], p.pairSquash...)
		ps.nSections = len(p.sections)
		for len(ps.sections) < ps.nSections {
			ps.sections = append(ps.sections, secState{})
		}
		for j, sec := range p.sections {
			ss := &ps.sections[j]
			ss.startOp = sec.startOp
			ss.lastRead = sec.lastRead
			sec.Footprint.Save(&ss.FootprintState, p.module)
		}
		ps.preempt.valid = false
		ps.preempt.spilled = ps.preempt.spilled[:0]
		if p.preempt != nil {
			ps.preempt.valid = true
			ps.preempt.resumeAt = p.preempt.resumeAt
			ps.preempt.doomed = p.preempt.doomed
			for _, sp := range p.preempt.spilled {
				ps.preempt.spilled = append(ps.preempt.spilled, spillState{
					r:      sp.sv.R.Clone(),
					w:      sp.sv.W.Clone(),
					secIdx: sectionIndex(p, sp.sec),
				})
			}
		}
	}
	return st
}

// LoadPolicy implements core.Policy: it rewinds the transactional state
// to a SavePolicy capture.
//
//bulklint:captures restore
//bulklint:captures restore policyState procState secState spillState preemptSnap proc section
func (s *System) LoadPolicy(src any) {
	st := src.(*policyState)
	s.stats = st.stats
	s.log = append(s.log[:0], st.log...)
	for i, p := range s.procs {
		ps := &st.procs[i]
		p.procRun = ps.procRun
		p.over.CopyFrom(ps.over)
		p.pairSquash = append(p.pairSquash[:0], ps.pairSquash...)
		// Rebuild the section stack through growSections, the recycling
		// pushSection uses, so capacity survives restores.
		p.sections = p.sections[:0]
		for j := 0; j < ps.nSections; j++ {
			sec := p.growSections()
			ss := &ps.sections[j]
			sec.startOp = ss.startOp
			sec.lastRead = ss.lastRead
			sec.Footprint.Load(&ss.FootprintState, p.module)
		}
		p.preempt = nil
		if ps.preempt.valid {
			st := &preemptState{
				resumeAt: ps.preempt.resumeAt,
				doomed:   ps.preempt.doomed,
			}
			for _, sp := range ps.preempt.spilled {
				st.spilled = append(st.spilled, &bdmSpill{
					sv:  &spilledSig{R: sp.r.Clone(), W: sp.w.Clone()},
					sec: p.sections[sp.secIdx],
				})
			}
			p.preempt = st
		}
	}
}

// sectionIndex finds sec's position in p's section stack.
func sectionIndex(p *proc, sec *section) int {
	for i, x := range p.sections {
		if x == sec {
			return i
		}
	}
	return -1
}
