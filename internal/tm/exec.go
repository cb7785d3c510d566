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
			if q == p || !q.inTxn() || q.masks(line).W == 0 {
				continue
			}
			if !s.resolveEagerConflict(p, q) {
				return 0, false // p stalled
			}
		}
	}

	// The innermost section records the read and returns its own buffered
	// value in one probe; the outer sections' buffers come next, then
	// committed memory. The cache serves timing only.
	sec := p.top()
	value, buffered := sec.Read(op.Addr)
	for i := len(p.sections) - 2; !buffered && i >= 0; i-- {
		value, buffered = p.sections[i].Value(op.Addr)
	}
	cost := s.opts.Params.HitLatency
	hit := true
	if !buffered {
		// A store-buffer hit is p's own speculative write; otherwise the
		// read goes to the cache.
		if p.cache.Access(cache.LineAddr(line)) == nil {
			hit = false
			cost = s.fill(p, line, true)
		}
		value = uint64(s.Mem.Read(op.Addr))
	}

	if p.module != nil && !(hit && s.opts.Mutate.Has(mutate.DropReadOnHit)) {
		p.module.OnRead(sec.Version, s.sigAddrOf(op.Addr))
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
			if q == p || !q.inTxn() {
				continue
			}
			if m := q.masks(line); m.R|m.W == 0 {
				continue
			}
			if !s.resolveEagerConflict(p, q) {
				return 0, false
			}
		}
	}

	cost := 0
	if s.opts.Scheme == Eager && p.masks(line).W == 0 {
		// Eager writes acquire ownership at the first write to a line:
		// broadcast an invalidation.
		cost += s.InvalidateOthers(p.id, line)
	}

	sec := p.top()
	if p.module != nil {
		d := p.module.PrepareWrite(sec.Version, s.sigAddrOf(op.Addr))
		if d.OK {
			for _, wb := range d.SafeWritebacks {
				p.cache.MarkClean(wb)
				s.Bus.Record(bus.WB, bus.WritebackBytes)
				cost += s.opts.Params.TransferCycles(bus.WritebackBytes)
			}
		}
		// A !OK decision means the set belongs to another section of this
		// same transaction (the only other speculative versions on a TM
		// processor). Sections of one closed nest squash together, so
		// sharing the set is safe — proceed.
	}

	// Ensure the line is cached dirty, then buffer the speculative value.
	cost += s.access(p, line, true)
	p.cache.MarkDirty(cache.LineAddr(line))
	sec.Write(op.Addr, p.exec.WriteValue(p.opIdx, op))
	if p.module != nil {
		p.module.CommitWrite(sec.Version, s.sigAddrOf(op.Addr))
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
	cost := s.access(p, core.LineOf(op.Addr), false)
	p.exec.SetLastRead(uint64(s.Mem.Read(op.Addr)))
	return cost
}

func (s *System) plainWrite(p *proc, seg *workload.TMSegment, op trace.Op) int {
	line := core.LineOf(op.Addr)
	value := p.exec.WriteValue(p.opIdx, op)

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
		if q.inTxn() {
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
						exact = exact || s.touches(sp.sec.Line(line), op.Addr)
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
						if m := sp.sec.Line(line); m.R|m.W != 0 {
							s.stats.DepSetLines++
						} else {
							s.stats.FalseSquashes++
						}
					}
				}
			} else if q.module != nil {
				exact := s.touches(q.masks(line), op.Addr)
				sigHit := false
				for si, sec := range q.sections {
					if q.module.DisambiguateAddr(sec.Version, s.sigAddrOf(op.Addr)) {
						sigHit = true
						dep := 0
						if s.touches(sec.Line(line), op.Addr) {
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
			} else if m := q.masks(line); m.R|m.W != 0 {
				s.squash(q, 0, 1)
			}
		}
		q.cache.Invalidate(cache.LineAddr(line))
	}

	// Update p's own cache copy.
	cost += s.access(p, line, false)
	p.cache.MarkDirty(cache.LineAddr(line))
	return cost
}

// touches reports whether m, the masks of a line, has the word a remote
// write updates at the signatures' granularity: the word itself under
// WordGranularity, any word of its line otherwise.
func (s *System) touches(m core.Masks, word uint64) bool {
	t := m.R | m.W
	if s.opts.WordGranularity {
		t &= core.WordBit(word)
	}
	return t != 0
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

// access is the cache side of an access to line by p: a hit's latency, or
// a fill's. spec marks a transactional access, as for fill.
func (s *System) access(p *proc, line uint64, spec bool) int {
	if p.cache.Access(cache.LineAddr(line)) == nil {
		return s.fill(p, line, spec)
	}
	return s.opts.Params.HitLatency
}

// fill brings a line into p's cache. spec marks a miss by a transactional
// access (enables the overflow-area path). Returns the access latency;
// bandwidth is charged here.
func (s *System) fill(p *proc, line uint64, spec bool) int {
	// Overflow-area path: the thread may have evicted this very line.
	if spec && p.inTxn() {
		if s.overflowLookup(p, line) {
			if p.over.Fetch(line) {
				s.Bus.Record(bus.UB, bus.FillBytes)
				s.insertLine(p, line, cache.Dirty)
				return s.opts.Params.MemLatency
			}
			// Filter false positive (aliasing): fall through to memory.
			s.Bus.Record(bus.UB, bus.AddrBytes+bus.HeaderBytes)
		} else if pr := s.opts.Probe; pr != nil && pr.Stale != nil &&
			p.over.Contains(line) && p.masks(line).W != 0 {
			// The filter skipped a line p parked for a live section: the
			// refill below lacks p's data.
			pr.Stale(sim.StaleEvent{Kind: sim.OverflowSkipped, Cycle: s.Engine.Now(), Holder: p.id, Line: line})
		}
	}

	// Find a supplier: a neighbor's copy, or memory when every remote
	// dirty copy is speculative.
	latency := s.SupplyLatency(p.id, line, func(q int) bool { return s.isSpecDirty(s.procs[q], line) })
	s.Bus.Record(bus.Fill, bus.FillBytes)
	s.insertLine(p, line, cache.Clean)
	return latency
}

// isSpecDirty reports whether q's dirty copy of line is speculative. Bulk
// uses the BDM's set-ownership test (what the hardware can see); exact
// schemes use the write set.
func (s *System) isSpecDirty(q *proc, line uint64) bool {
	if !q.inTxn() {
		return false
	}
	if q.module != nil {
		return q.module.OwnsDirtySet(q.cache.SetIndex(cache.LineAddr(line)))
	}
	return q.masks(line).W != 0
}

// insertLine inserts a line and handles the eviction it may cause.
func (s *System) insertLine(p *proc, line uint64, st cache.State) {
	if _, ev := p.cache.Insert(cache.LineAddr(line), st); ev.State == cache.Dirty {
		s.handleDirtyEviction(p, uint64(ev.Addr))
	}
}

// handleDirtyEviction routes an evicted dirty line: speculative lines go
// to the overflow area (Section 6.2.2); non-speculative lines write back.
func (s *System) handleDirtyEviction(p *proc, line uint64) {
	if p.inTxn() && p.masks(line).W != 0 {
		p.over.Spill(line)
		if p.module != nil {
			for _, sec := range p.sections {
				if sec.Line(line).W != 0 {
					p.module.NoteOverflow(sec.Version)
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
			if p.module.NeedsOverflowLookup(sec.Version, cache.LineAddr(line)) {
				return true
			}
		}
		return false
	}
	return !p.over.Empty()
}
