package tm

import (
	"bulk/internal/bus"
	"bulk/internal/cache"
	"bulk/internal/core"
	"bulk/internal/mem"
	"bulk/internal/mutate"
	"bulk/internal/sig"
	"bulk/internal/sim"
	"bulk/internal/trace"
	"bulk/internal/workload"
)

// sigAddrOf maps a word address to the granularity the signatures encode.
func (s *System) sigAddrOf(word uint64) sig.Addr {
	if s.opts.WordGranularity {
		return sig.Addr(word)
	}
	return sig.Addr(core.LineOf(word))
}

// executeOp runs one memory operation for p. It returns the access cost in
// cycles and whether the op completed (false means p stalled and must retry
// the same op when unparked).
func (s *System) executeOp(p *proc, seg *workload.TMSegment, op trace.Op) (int, bool) {
	if seg.Txn {
		switch op.Kind {
		case trace.Read:
			return s.specRead(p, op)
		default:
			return s.specWrite(p, op)
		}
	}
	switch op.Kind {
	case trace.Read:
		return s.plainRead(p, op), true
	default:
		return s.plainWrite(p, seg, op), true
	}
}

// ---- speculative (transactional) accesses ----

func (s *System) specRead(p *proc, op trace.Op) (int, bool) {
	line := core.LineOf(op.Addr)

	// Eager: a read conflicts with any other transaction's write to the
	// line; detected when the coherence request reaches the writer.
	if s.opts.Scheme == Eager {
		for _, q := range s.procs {
			if q == p || !q.inTxn || !q.inWriteSet(line) {
				continue
			}
			if !s.resolveEagerConflict(p, q) {
				return 0, false // p stalled
			}
		}
	}

	cost := 0
	var value uint64
	hit := true
	if v, ok := p.bufLookup(op.Addr); ok {
		// Store-buffer hit: the value is p's own speculative write.
		value = v
		cost = s.opts.Params.HitLatency
	} else if l := p.cache.Access(cache.LineAddr(line)); l != nil {
		value = l.Data[int(op.Addr)%core.WordsPerLine]
		cost = s.opts.Params.HitLatency
	} else {
		hit = false
		var l *cache.Line
		l, cost = s.fill(p, line, true)
		value = l.Data[int(op.Addr)%core.WordsPerLine]
	}

	sec := p.top()
	sec.readL.Add(line)
	sec.readW.Add(op.Addr)
	if p.module != nil && !(hit && s.opts.Mutate.Has(mutate.DropReadOnHit)) {
		p.module.OnRead(sec.version, s.sigAddrOf(op.Addr))
	}
	p.exec.SetLastRead(value)
	return cost, true
}

func (s *System) specWrite(p *proc, op trace.Op) (int, bool) {
	line := core.LineOf(op.Addr)

	if s.opts.Scheme == Eager {
		// A write conflicts with any other transaction that read or wrote
		// the line.
		for _, q := range s.procs {
			if q == p || !q.inTxn || (!q.inReadSet(line) && !q.inWriteSet(line)) {
				continue
			}
			if !s.resolveEagerConflict(p, q) {
				return 0, false
			}
		}
	}

	firstWrite := !p.inWriteSet(line)
	cost := 0

	if s.opts.Scheme == Eager && firstWrite {
		// Eager writes acquire ownership: broadcast an invalidation.
		cost += s.InvalidateOthers(p.id, line)
	}

	sec := p.top()
	if p.module != nil {
		d := p.module.PrepareWrite(sec.version, s.sigAddrOf(op.Addr))
		if d.OK {
			for _, wb := range d.SafeWritebacks {
				p.cache.MarkClean(wb.Addr)
				s.Bus.Record(bus.WB, bus.WritebackBytes)
				cost += s.opts.Params.TransferCycles(bus.WritebackBytes)
			}
		}
		// A !OK decision means the set belongs to another section of this
		// same transaction (the only other speculative versions on a TM
		// processor). Sections of one closed nest squash together, so
		// sharing the set is safe — proceed.
	}

	// Ensure the line is cached dirty with current data.
	l := p.cache.Access(cache.LineAddr(line))
	if l == nil {
		var fc int
		l, fc = s.fill(p, line, true) // write-allocate fetch
		cost += fc
	} else {
		cost += s.opts.Params.HitLatency
	}
	p.cache.MarkDirty(l)

	// Compute and buffer the speculative value.
	var value uint64
	if op.Kind == trace.WriteDep {
		value = trace.DepValue(p.exec.LastRead(), op.Addr)
	} else {
		value = trace.Value(p.id, p.opIdx, op.Addr)
	}
	sec.wbuf.Put(op.Addr, value)
	sec.writeL.Add(line)
	l.Data[int(op.Addr)%core.WordsPerLine] = value
	if p.module != nil {
		p.module.CommitWrite(sec.version, s.sigAddrOf(op.Addr))
	}
	return cost, true
}

// resolveEagerConflict handles an access by p that conflicts with q's
// transaction. Default policy: requester wins, q is squashed. With the
// livelock fix (footnote 2), once the pair has squashed each other
// repeatedly, the younger transaction stalls until the older commits.
// Returns false if p stalled.
func (s *System) resolveEagerConflict(p, q *proc) bool {
	if s.opts.LivelockFix &&
		p.pairSquash[q.id]+q.pairSquash[p.id] >= 1 &&
		olderTxn(q, p) {
		p.stalledOn = q.id
		q.waiters = append(q.waiters, p.id)
		s.Engine.Park(p.id)
		s.stats.Stalls++
		return false
	}
	q.pairSquash[p.id]++
	s.squash(q, 0, 1)
	return true
}

// olderTxn reports whether a's transaction started strictly before b's
// (ties broken by processor id, so the stall relation is acyclic).
func olderTxn(a, b *proc) bool {
	if a.txnStart != b.txnStart {
		return a.txnStart < b.txnStart
	}
	return a.id < b.id
}

// ---- non-transactional accesses ----

func (s *System) plainRead(p *proc, op trace.Op) int {
	line := core.LineOf(op.Addr)
	cost := 0
	var value uint64
	if l := p.cache.Access(cache.LineAddr(line)); l != nil {
		value = l.Data[int(op.Addr)%core.WordsPerLine]
		cost = s.opts.Params.HitLatency
	} else {
		var l *cache.Line
		l, cost = s.fill(p, line, false)
		value = l.Data[int(op.Addr)%core.WordsPerLine]
	}
	p.exec.SetLastRead(value)
	return cost
}

func (s *System) plainWrite(p *proc, seg *workload.TMSegment, op trace.Op) int {
	line := core.LineOf(op.Addr)
	value := trace.Value(p.id, p.opIdx, op.Addr)

	// Non-speculative writes are globally visible immediately: they send
	// an invalidation and update committed memory.
	s.Mem.Write(op.Addr, mem.Word(value))
	s.log = append(s.log, CommitUnit{Thread: p.id, Segment: p.segIdx, OpLo: p.opIdx, OpHi: p.opIdx + 1})

	s.Bus.Record(bus.Inv, bus.InvalidationBytes)
	cost := s.opts.Params.TransferCycles(bus.InvalidationBytes)

	for _, q := range s.procs {
		if q == p {
			continue
		}
		// Individual disambiguation of the invalidation against
		// speculative threads (Section 4.2's membership path).
		if q.inTxn {
			if q.preempt != nil && len(q.preempt.spilled) > 0 {
				// Signatures are spilled: membership-test the saved
				// copies; a hit dooms the paused transaction. The test
				// runs at the signatures' own granularity (words when
				// WordGranularity, lines otherwise).
				if !q.preempt.doomed {
					sigAddr := s.sigAddrOf(op.Addr)
					hitIdx := -1
					exact := false
					for i, sp := range q.preempt.spilled {
						if hitIdx < 0 && (sp.sv.R.Contains(sigAddr) || sp.sv.W.Contains(sigAddr)) {
							hitIdx = i
						}
						if s.opts.WordGranularity {
							exact = exact || sp.sec.readW.Has(op.Addr) || sp.sec.wbuf.Has(op.Addr)
						} else {
							exact = exact || sp.sec.readL.Has(line) || sp.sec.writeL.Has(line)
						}
					}
					if s.opts.Mutate.Has(mutate.SkipSpilledDisambiguation) {
						hitIdx = -1
					}
					if s.opts.Probe != nil {
						s.opts.Probe.EmitConflict(sim.ConflictEvent{
							Path: sim.PathSpilled, Committer: p.id, Receiver: q.id,
							SigHit: hitIdx >= 0, ExactHit: exact,
						})
					}
					if hitIdx >= 0 {
						sp := q.preempt.spilled[hitIdx]
						q.preempt.doomed = true
						s.stats.Squashes++
						if sp.sec.readL.Has(line) || sp.sec.writeL.Has(line) {
							s.real++
							s.stats.DepSetLines++
						} else {
							s.stats.FalseSquashes++
						}
					}
				}
			} else if q.module != nil {
				exact := false
				if s.opts.WordGranularity {
					exact = q.readWord(op.Addr) || q.wroteWord(op.Addr)
				} else {
					exact = q.inReadSet(line) || q.inWriteSet(line)
				}
				sigHit := false
				for si, sec := range q.sections {
					if q.module.DisambiguateAddr(sec.version, s.sigAddrOf(op.Addr)) {
						sigHit = true
						dep := 0
						if s.opts.WordGranularity {
							if sec.readW.Has(op.Addr) || sec.wbuf.Has(op.Addr) {
								dep = 1
							}
						} else if sec.readL.Has(line) || sec.writeL.Has(line) {
							dep = 1
						}
						s.squash(q, s.rollbackSection(q, si), uint64(dep))
						break
					}
				}
				if s.opts.Probe != nil {
					s.opts.Probe.EmitConflict(sim.ConflictEvent{
						Path: sim.PathInvalidation, Committer: p.id, Receiver: q.id,
						SigHit: sigHit, ExactHit: exact,
					})
				}
			} else if q.inReadSet(line) || q.inWriteSet(line) {
				s.squash(q, 0, 1)
			}
		}
		q.cache.Invalidate(cache.LineAddr(line))
	}

	// Update p's own cache copy.
	l := p.cache.Access(cache.LineAddr(line))
	if l == nil {
		var fc int
		l, fc = s.fill(p, line, false)
		cost += fc
	} else {
		cost += s.opts.Params.HitLatency
	}
	p.cache.MarkDirty(l)
	l.Data[int(op.Addr)%core.WordsPerLine] = value
	return cost
}

// rollbackSection maps a violating section index to the rollback point:
// with partial rollback enabled, execution resumes at the violating
// section; otherwise the whole transaction restarts.
func (s *System) rollbackSection(q *proc, violating int) int {
	if s.opts.PartialRollback {
		return violating
	}
	return 0
}

// ---- fills and evictions ----

// fill brings a line into p's cache. spec marks a miss by a transactional
// access (enables the overflow-area path). Returns the line and the access
// latency; bandwidth is charged here.
func (s *System) fill(p *proc, line uint64, spec bool) (*cache.Line, int) {
	par := s.opts.Params

	// Overflow-area path: the thread may have evicted this very line.
	if spec && p.inTxn {
		if s.overflowLookup(p, line) {
			if mask, words, ok := p.over.Fetch(line); ok {
				s.Bus.Record(bus.UB, bus.FillBytes)
				l := s.insertLine(p, line, cache.Dirty)
				for w := range words {
					if mask&(1<<uint(w)) != 0 {
						l.Data[w] = uint64(words[w])
					}
				}
				return l, par.MemLatency
			}
			// Filter false positive (aliasing): fall through to memory.
			s.Bus.Record(bus.UB, bus.AddrBytes+bus.HeaderBytes)
		}
	}

	// Find a supplier: a neighbor's copy, or memory when every remote
	// dirty copy is speculative.
	latency := s.SupplyLatency(p.id, line, func(q int) bool { return s.isSpecDirty(s.procs[q], line) })
	s.Bus.Record(bus.Fill, bus.FillBytes)
	l := s.insertLine(p, line, cache.Clean)
	return l, latency
}

// isSpecDirty reports whether q's dirty copy of line is speculative. Bulk
// uses the BDM's set-ownership test (what the hardware can see); exact
// schemes use the write set.
func (s *System) isSpecDirty(q *proc, line uint64) bool {
	if !q.inTxn {
		return false
	}
	if q.module != nil {
		return q.module.OwnsDirtySet(q.cache.SetIndex(cache.LineAddr(line)))
	}
	return q.inWriteSet(line)
}

// insertLine inserts a line with a committed-memory data snapshot and
// handles the eviction it may cause.
func (s *System) insertLine(p *proc, line uint64, st cache.State) *cache.Line {
	l, ev := p.cache.Insert(cache.LineAddr(line), st)
	if l.Data == nil {
		l.Data = make([]uint64, core.WordsPerLine)
	}
	base := line * core.WordsPerLine
	for w := 0; w < core.WordsPerLine; w++ {
		l.Data[w] = uint64(s.Mem.Read(base + uint64(w)))
	}
	if ev != nil && ev.State == cache.Dirty {
		s.handleDirtyEviction(p, uint64(ev.Addr))
	}
	return l
}

// gatherSpill collects p's buffered values for a line into the reusable
// spill buffer, returning the validity mask and the buffer. The buffer is
// only valid until the next call; Spill copies it.
func (s *System) gatherSpill(p *proc, line uint64) (uint64, []mem.Word) {
	words := s.spillWords[:]
	var mask uint64
	base := line * core.WordsPerLine
	for w := 0; w < core.WordsPerLine; w++ {
		if v, ok := p.bufLookup(base + uint64(w)); ok {
			words[w] = mem.Word(v)
			mask |= 1 << uint(w)
		}
	}
	return mask, words
}

// handleDirtyEviction routes an evicted dirty line: speculative lines go
// to the overflow area (Section 6.2.2); non-speculative lines write back.
func (s *System) handleDirtyEviction(p *proc, line uint64) {
	if p.inTxn && p.inWriteSet(line) {
		mask, words := s.gatherSpill(p, line)
		p.over.Spill(line, mask, words)
		if p.module != nil {
			for _, sec := range p.sections {
				if sec.writeL.Has(line) {
					p.module.NoteOverflow(sec.version)
				}
			}
		}
		s.Bus.Record(bus.UB, bus.WritebackBytes)
		return
	}
	// Non-speculative dirty data is already reflected in committed memory
	// (plain writes update it immediately); the writeback is traffic only.
	s.Bus.Record(bus.WB, bus.WritebackBytes)
}

// overflowLookup decides whether the overflow area must be consulted on a
// miss. Bulk uses the O bit + W membership filter; conventional schemes
// must check whenever the area is non-empty.
func (s *System) overflowLookup(p *proc, line uint64) bool {
	if p.module != nil {
		for _, sec := range p.sections {
			if p.module.NeedsOverflowLookup(sec.version, cache.LineAddr(line)) {
				return true
			}
		}
		return false
	}
	return !p.over.Empty()
}
