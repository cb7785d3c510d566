package tm

import (
	"sort"

	"bulk/internal/flatmap"
	"bulk/internal/mem"
	"bulk/internal/sig"
)

// The machine's snapshot envelope (core.Machine.Snapshot/Restore) captures
// memory, engine, bus counters, caches and BDM version tables; SavePolicy
// and LoadPolicy add the transactional state — write buffers, exact sets,
// section stacks, overflow areas, preemption, stats and the commit log.
// Scratch buffers (commit unions, spill staging) are dead between quanta
// and are deliberately not captured.

// secState is the deep-copied state of one transaction section. The BDM
// version is recorded by module table index, not pointer, so Restore can
// re-resolve it in the reloaded module; flattened sections (nesting
// overflow) share an index exactly as they shared a version.
//
//bulklint:snapstate
type secState struct {
	startOp    int
	wbuf       flatmap.Map[uint64]
	readL      flatmap.Set
	writeL     flatmap.Set
	readW      flatmap.Set
	versionIdx int
	lastRead   uint64
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

// procState is the deep-copied state of one processor.
//
//bulklint:snapstate
type procState struct {
	over          *mem.OverflowArea
	lastRead      uint64
	segIdx        int
	opIdx         int
	done          bool
	inTxn         bool
	txnStart      int64
	attempts      int
	lastPreemptOp int
	stalledOn     int
	waiters       []int
	pairKeys      []int
	pairVals      []int
	sections      []secState
	nSections     int
	preempt       preemptSnap
}

// policyState is the transactional state of a snapshot. The zero value
// grows on first capture; re-capturing into it reuses its storage.
//
//bulklint:snapstate
type policyState struct {
	stats Stats
	log   []CommitUnit
	real  uint64
	procs []procState
}

// SavePolicy implements core.Policy: it captures the transactional state
// into dst (a *policyState, or nil to allocate one).
//
//bulklint:captures snapshot
//bulklint:captures snapshot policyState procState secState spillState preemptSnap proc section
func (s *System) SavePolicy(dst any) (any, int) {
	st, _ := dst.(*policyState)
	if st == nil {
		st = &policyState{}
	}
	st.stats = s.stats
	st.log = append(st.log[:0], s.log...)
	st.real = s.real
	for len(st.procs) < len(s.procs) {
		st.procs = append(st.procs, procState{})
	}
	size := 32 * cap(st.log)
	for i, p := range s.procs {
		ps := &st.procs[i]
		if ps.over == nil {
			ps.over = mem.NewOverflowArea()
		}
		ps.over.CopyFrom(p.over)
		ps.lastRead = p.exec.LastRead()
		ps.segIdx, ps.opIdx, ps.done = p.segIdx, p.opIdx, p.done
		ps.inTxn, ps.txnStart = p.inTxn, p.txnStart
		ps.attempts, ps.lastPreemptOp = p.attempts, p.lastPreemptOp
		ps.stalledOn = p.stalledOn
		ps.waiters = append(ps.waiters[:0], p.waiters...)
		// Launder the builtin map through a key sort so iteration order
		// cannot reach the snapshot bytes.
		ps.pairKeys = ps.pairKeys[:0]
		for k := range p.pairSquash {
			ps.pairKeys = append(ps.pairKeys, k)
		}
		sort.Ints(ps.pairKeys)
		ps.pairVals = ps.pairVals[:0]
		for _, k := range ps.pairKeys {
			ps.pairVals = append(ps.pairVals, p.pairSquash[k])
		}
		ps.nSections = len(p.sections)
		for len(ps.sections) < ps.nSections {
			ps.sections = append(ps.sections, secState{})
		}
		for j, sec := range p.sections {
			ss := &ps.sections[j]
			ss.startOp = sec.startOp
			ss.wbuf.CopyFrom(&sec.wbuf)
			ss.readL.CopyFrom(&sec.readL)
			ss.writeL.CopyFrom(&sec.writeL)
			ss.readW.CopyFrom(&sec.readW)
			ss.versionIdx = -1
			if sec.version != nil {
				ss.versionIdx = p.module.IndexOfVersion(sec.version)
			}
			ss.lastRead = sec.lastRead
			size += 64 + 17*ss.wbuf.Cap() +
				9*(ss.readL.Cap()+ss.writeL.Cap()+ss.readW.Cap())
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
		size += 64 + ps.over.SizeBytes() + 8*(cap(ps.waiters)+2*cap(ps.pairKeys))
	}
	return st, size
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
	s.real = st.real
	for i, p := range s.procs {
		ps := &st.procs[i]
		p.over.CopyFrom(ps.over)
		p.exec.SetLastRead(ps.lastRead)
		p.segIdx, p.opIdx, p.done = ps.segIdx, ps.opIdx, ps.done
		p.inTxn, p.txnStart = ps.inTxn, ps.txnStart
		p.attempts, p.lastPreemptOp = ps.attempts, ps.lastPreemptOp
		p.stalledOn = ps.stalledOn
		p.waiters = append(p.waiters[:0], ps.waiters...)
		if p.pairSquash == nil {
			p.pairSquash = make(map[int]int, len(ps.pairKeys))
		} else {
			clear(p.pairSquash)
		}
		for k, key := range ps.pairKeys {
			p.pairSquash[key] = ps.pairVals[k]
		}
		// Rebuild the section stack through growSections, the recycling
		// pushSection uses, so capacity survives restores.
		p.sections = p.sections[:0]
		for j := 0; j < ps.nSections; j++ {
			sec := p.growSections()
			ss := &ps.sections[j]
			sec.startOp = ss.startOp
			sec.wbuf.CopyFrom(&ss.wbuf)
			sec.readL.CopyFrom(&ss.readL)
			sec.writeL.CopyFrom(&ss.writeL)
			sec.readW.CopyFrom(&ss.readW)
			sec.version = nil
			if ss.versionIdx >= 0 {
				sec.version = p.module.VersionAt(ss.versionIdx)
			}
			sec.lastRead = ss.lastRead
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
