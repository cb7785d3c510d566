package tm

import (
	"bulk/internal/bus"
	"bulk/internal/cache"
	"bulk/internal/core"
	"bulk/internal/flatmap"
	"bulk/internal/mem"
	"bulk/internal/sig"
	"bulk/internal/sim"
	"bulk/internal/workload"
)

// commit completes p's transaction: it arbitrates for the bus, broadcasts
// (per scheme), applies the write buffer to committed memory, disambiguates
// and invalidates at the receivers, and releases p's speculative state
// (Figure 5's flowchart).
func (s *System) commit(p *proc, seg *workload.TMSegment) {
	par := s.opts.Params

	writeLines := p.unionWriteLines(&s.wlScratch)
	readLines := p.unionReadLines(&s.rlScratch)

	// Commit packet per scheme.
	var wc *sig.Signature
	var packetBytes int
	switch s.opts.Scheme {
	case Eager:
		// Ownership was acquired during execution; commit is a cheap
		// coherence action.
		packetBytes = bus.HeaderBytes
		s.Bus.Record(bus.Coh, packetBytes)
	case Lazy:
		packetBytes = bus.AddressListCommitBytes(writeLines.Len())
		s.Bus.RecordCommit(packetBytes)
	case Bulk:
		// The broadcast signature is the union of the section write
		// signatures (Section 6.2.1). A single-section transaction — the
		// common case — broadcasts its W directly: the committer's versions
		// are cleared only after the receiver loop, so wc stays valid.
		// Nested transactions union into a reusable scratch signature.
		if len(p.sections) == 1 {
			wc = p.sections[0].version.W
		} else {
			if s.commitWC == nil {
				s.commitWC = s.opts.SigConfig.NewSignature()
			} else {
				s.commitWC.Clear()
			}
			for _, sec := range p.sections {
				s.commitWC.UnionWith(sec.version.W)
			}
			wc = s.commitWC
		}
		rleBits := wc.Config().TotalBits()
		if !s.opts.NoRLE {
			rleBits = sig.RLEncodedBits(wc)
		}
		packetBytes = bus.SignatureCommitBytes(rleBits)
		s.Bus.RecordCommit(packetBytes)
	}
	busDone := s.Engine.AcquireBus(par.CommitArbitration + par.TransferCycles(packetBytes))

	// Apply the speculative values to committed memory, section order
	// (outer first) so inner overwrites win, matching bufLookup.
	for _, sec := range p.sections {
		s.keyScratch = sec.wbuf.SortedKeys(s.keyScratch[:0])
		for _, a := range s.keyScratch {
			v, _ := sec.wbuf.Get(a)
			s.Mem.Write(a, mem.Word(v))
		}
	}
	// Commit propagates the transaction's dirty data: the written lines
	// are flushed to memory and downgrade to clean (TCC-style lazy
	// commit; the same bytes would otherwise be written back at
	// eviction). This keeps committed lines from lingering dirty and
	// later being charged as Set Restriction safe writebacks. The bus
	// traffic is charged as one coalesced batch after the walk.
	wbLines := 0
	s.keyScratch = writeLines.SortedKeys(s.keyScratch[:0])
	for _, l := range s.keyScratch {
		if cl := p.cache.Lookup(cache.LineAddr(l)); cl != nil && cl.State == cache.Dirty {
			p.cache.MarkClean(cache.LineAddr(l))
			wbLines++
		}
	}
	if wbLines > 0 {
		s.Bus.RecordN(bus.WB, bus.WritebackBytes, wbLines)
	}
	s.log = append(s.log, CommitUnit{Thread: p.id, Segment: p.segIdx, OpLo: 0, OpHi: len(seg.Ops)})
	s.stats.Commits++
	s.stats.ReadSetLines += uint64(readLines.Len())
	s.stats.WriteSetLines += uint64(writeLines.Len())

	// Receivers: disambiguate, then invalidate stale copies.
	for _, q := range s.procs {
		if q == p {
			continue
		}
		if q.inTxn {
			if q.preempt != nil && len(q.preempt.spilled) > 0 {
				// The receiver's signatures are spilled to memory
				// (Section 6.2.2): disambiguate against the saved copies.
				s.disambiguateSpilled(p, q, wc, writeLines)
			} else {
				s.disambiguateAtCommit(p, q, wc, writeLines)
			}
		}
		s.invalidateCommitted(p, q, wc, writeLines)
	}

	// Release the committer's speculative state. Committed dirty lines
	// stay in the cache as ordinary (non-speculative) dirty lines.
	if p.module != nil {
		for _, sec := range p.sections {
			p.module.ClearVersion(sec.version)
			p.module.FreeVersion(sec.version)
		}
	}
	p.sections = p.sections[:0] // keep the backing array for recycling
	p.inTxn = false
	p.attempts = 0
	p.over.Dealloc()
	s.releaseWaiters(p)
	// The livelock-fix bookkeeping is per ping-pong episode: a commit by
	// either party ends the episode, so the mutual-squash counters
	// involving p reset. Without this, two transactions that once
	// squashed each other would stall on every future conflict.
	p.pairSquash = map[int]int{}
	for _, q := range s.procs {
		delete(q.pairSquash, p.id)
	}

	p.segIdx++
	p.opIdx = 0
	s.Engine.AdvanceTo(p.id, busDone)
}

// disambiguateAtCommit applies the committer's write set/signature to a
// receiver with an active transaction and squashes it on overlap.
func (s *System) disambiguateAtCommit(p, q *proc, wc *sig.Signature, writeLines *flatmap.Set) {
	// Exact overlap (ground truth): committer writes vs. receiver R∪W,
	// in lines (the Table 7 dependence-set metric).
	dep := uint64(0)
	writeLines.Range(func(l uint64) bool { // order-independent count
		if q.inReadSet(l) || q.inWriteSet(l) {
			dep++
		}
		return true
	})
	// At word granularity the honest squash ground truth is word overlap:
	// same-line-different-word contacts are not conflicts there.
	real := dep
	if s.opts.WordGranularity {
		real = 0
		for _, sec := range p.sections {
			sec.wbuf.Range(func(w, _ uint64) bool { // order-independent count
				if q.readWord(w) || q.wroteWord(w) {
					real++
				}
				return true
			})
		}
	}

	switch s.opts.Scheme {
	case Eager:
		// Conflicts were already resolved at access time.
		return
	case Lazy:
		// Conventional lazy must also disambiguate against the
		// receiver's overflowed addresses in memory.
		if !q.over.Empty() {
			for i := 0; i < writeLines.Len(); i++ {
				q.over.DisambiguationScan(0)
			}
			s.Bus.Record(bus.UB, writeLines.Len()*bus.AddrBytes+bus.HeaderBytes)
		}
		if dep > 0 {
			s.squash(q, 0, dep)
		}
	case Bulk:
		// Section-ordered bulk disambiguation (Figure 8): the first
		// violating section and everything after it rolls back. A squash
		// with no exact overlap at the signature's granularity is a false
		// positive; the dependence-set stat stays line-based.
		hitSec := -1
		for si, sec := range q.sections {
			if q.module.Disambiguate(sec.version, wc) {
				hitSec = si
				break
			}
		}
		if s.opts.Probe != nil {
			s.opts.Probe.EmitConflict(sim.ConflictEvent{
				Path: sim.PathCommit, Committer: p.id, Receiver: q.id,
				SigHit: hitSec >= 0, ExactHit: real > 0,
			})
		}
		if hitSec >= 0 {
			if real == 0 {
				s.squash(q, s.rollbackSection(q, hitSec), 0)
			} else {
				s.squash(q, s.rollbackSection(q, hitSec), dep)
			}
		}
	}
}

// invalidateCommitted removes the receiver's stale copies of the
// committer's written lines.
func (s *System) invalidateCommitted(p, q *proc, wc *sig.Signature, writeLines *flatmap.Set) {
	switch s.opts.Scheme {
	case Eager, Lazy:
		// Eager acquired ownership at write time, but a later miss by q is
		// nacked against the spec-dirty owner and refetches the committed
		// (pre-transaction) version from memory, so q can hold a clean copy
		// that goes stale the moment this commit lands. The commit's
		// coherence action knocks those out too.
		s.keyScratch = writeLines.SortedKeys(s.keyScratch[:0])
		for _, l := range s.keyScratch {
			q.cache.Invalidate(cache.LineAddr(l))
		}
	case Bulk:
		if q.module == nil {
			return
		}
		invalidated, merges := q.module.CommitInvalidate(wc)
		for _, l := range invalidated {
			if !writeLines.Has(uint64(l)) {
				s.stats.FalseInvalidations++
			}
		}
		// Word-granularity mode: a dirty line both sides updated (in
		// different words) merges — committed data overlaid with the
		// local owner's buffered words (Section 4.4 / Figure 6).
		for _, m := range merges {
			s.mergeLine(q, uint64(m.Addr))
		}
	}
}

// mergeLine refreshes a locally-dirty, partially-remote-updated line: each
// word takes the local transaction's buffered value if it wrote it, else
// the just-committed memory value. The line stays dirty in q's cache.
//
//bulklint:noalloc
func (s *System) mergeLine(q *proc, line uint64) {
	cl := q.cache.Lookup(cache.LineAddr(line))
	if cl == nil {
		return
	}
	s.stats.Merges++
	s.Bus.Record(bus.Fill, bus.FillBytes) // committed line fetched
	base := line * core.WordsPerLine
	for w := 0; w < core.WordsPerLine; w++ {
		a := base + uint64(w)
		if v, ok := q.bufLookup(a); ok {
			cl.Data[w] = v
		} else {
			cl.Data[w] = uint64(s.Mem.Read(a))
		}
	}
}

// squash aborts q's transaction back to section fromSection. dep is the
// exact dependence overlap (0 means the squash was a signature false
// positive).
func (s *System) squash(q *proc, fromSection int, dep uint64) {
	if !q.inTxn {
		return
	}
	s.stats.Squashes++
	if dep == 0 {
		s.stats.FalseSquashes++
	} else {
		s.real++
		s.stats.DepSetLines += dep
	}

	if fromSection > 0 {
		s.partialRollback(q, fromSection)
		return
	}

	s.discardTxn(q)
	restartAt := s.Engine.Now() + int64(s.opts.Params.SquashOverhead)
	if s.opts.Scheme == Eager && s.opts.Params.BackoffBase > 0 {
		restartAt += int64(q.attempts * s.opts.Params.BackoffBase)
	}
	s.wake(q, restartAt)
	s.releaseWaiters(q)
}

// discardTxn drops q's whole transaction — every section's buffered state
// and BDM version, its overflow area — and rewinds it to the start of its
// segment, counting the restart against RestartLimit.
func (s *System) discardTxn(q *proc) {
	if q.module != nil {
		for _, sec := range q.sections {
			if sec.version == nil {
				continue // spilled while preempted; nothing in the BDM
			}
			invalidated := q.module.SquashInvalidate(sec.version, false)
			// Squash hygiene: with the Set Restriction intact, every dirty
			// line a squash destroys belongs to the squashed transaction's
			// own write set. (Interloper-dirtied lines during preemption
			// pauses can legitimately alias, so the probe is only armed in
			// preemption-free runs.)
			if s.opts.Probe != nil && s.opts.PreemptEvery == 0 {
				for _, line := range invalidated {
					s.opts.Probe.EmitHygiene(sim.HygieneEvent{
						Owner: q.id, Line: uint64(line),
						InWriteSet: q.inWriteSet(uint64(line)),
					})
				}
			}
			q.module.FreeVersion(sec.version)
		}
	} else {
		// A squash can fire inside a commit's receiver loop, so it keeps
		// its own scratch set and key buffer distinct from the commit's.
		s.sqKeys = q.unionWriteLines(&s.sqScratch).SortedKeys(s.sqKeys[:0])
		for _, l := range s.sqKeys {
			if cl := q.cache.Lookup(cache.LineAddr(l)); cl != nil && cl.State == cache.Dirty {
				q.cache.Invalidate(cache.LineAddr(l))
			}
		}
	}
	q.exec.SetLastRead(q.sections[0].lastRead)
	q.sections = q.sections[:0] // keep the backing array for recycling
	q.inTxn = false
	q.opIdx = 0
	q.preempt = nil
	q.over.Dealloc()
	q.attempts++
	if q.attempts >= s.opts.RestartLimit {
		s.stats.LivelockDetected = true
	}
}

// partialRollback discards sections fromSection.. and resumes execution at
// the start of fromSection (Section 6.2.1's partial rollback).
func (s *System) partialRollback(q *proc, fromSection int) {
	s.stats.PartialRollbacks++
	resume := q.sections[fromSection].startOp
	reg := q.sections[fromSection].lastRead
	for _, sec := range q.sections[fromSection:] {
		if q.module != nil {
			q.module.SquashInvalidate(sec.version, false)
			q.module.FreeVersion(sec.version)
		}
	}
	q.sections = q.sections[:fromSection]
	q.exec.SetLastRead(reg)
	q.opIdx = resume
	// Reopen the violated section fresh.
	s.pushSection(q, resume)
	s.wake(q, s.Engine.Now()+int64(s.opts.Params.SquashOverhead))
}

// wake reschedules q at the given time, unparking it if it was stalled.
func (s *System) wake(q *proc, at int64) {
	if q.stalledOn >= 0 {
		// Remove q from the waiter list of the proc it stalled on.
		t := s.procs[q.stalledOn]
		for i, w := range t.waiters {
			if w == q.id {
				t.waiters = append(t.waiters[:i], t.waiters[i+1:]...)
				break
			}
		}
		q.stalledOn = -1
	}
	s.Engine.Unpark(q.id, at)
}

// releaseWaiters unparks every processor stalled on p's transaction.
func (s *System) releaseWaiters(p *proc) {
	for _, w := range p.waiters {
		q := s.procs[w]
		q.stalledOn = -1
		s.Engine.Unpark(q.id, s.Engine.Now())
	}
	p.waiters = p.waiters[:0]
}
