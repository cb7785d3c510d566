package tls

import (
	"bulk/internal/bus"
	"bulk/internal/cache"
	"bulk/internal/core"
	"bulk/internal/sig"
	"bulk/internal/trace"
)

// sigAddr maps a word address to the granularity the signatures encode.
func (s *System) sigAddr(word uint64) sig.Addr {
	if s.opts.LineGranularity {
		return sig.Addr(core.LineOf(word))
	}
	return sig.Addr(word)
}

// executeOp runs one op of task t on processor p. Returns the access cost
// and whether the op completed (false: the op squashed its own task via a
// Set Restriction conflict and must not advance).
func (s *System) executeOp(p *proc, t *task, op trace.Op) (int, bool) {
	if op.Kind == trace.Read {
		return s.taskRead(p, t, op), true
	}
	return s.taskWrite(p, t, op)
}

// forwardedValue resolves the value a task reads past its own write
// buffer: the nearest less-speculative active task's buffer (the eager
// cross-task forwarding TLS permits), then committed memory.
func (s *System) forwardedValue(t *task, word uint64) uint64 {
	for i := t.idx - 1; i >= 0; i-- {
		pre := s.tasks[i]
		if pre.state == tsCommitted {
			break // everything older is committed state
		}
		if !pre.active() {
			continue
		}
		if v, ok := pre.Value(word); ok {
			return v
		}
	}
	return uint64(s.Mem.Read(word))
}

func (s *System) taskRead(p *proc, t *task, op trace.Op) int {
	line := core.LineOf(op.Addr)
	cost := s.opts.Params.HitLatency
	value, buffered := t.Read(op.Addr)
	if !buffered {
		if p.cache.Access(cache.LineAddr(line)) == nil {
			cost = s.fill(p, t, line)
		}
		value = s.forwardedValue(t, op.Addr)
	}
	if t.Version != nil {
		p.module.OnRead(t.Version, s.sigAddr(op.Addr))
	}
	t.exec.SetLastRead(value)
	return cost
}

func (s *System) taskWrite(p *proc, t *task, op trace.Op) (int, bool) {
	line := core.LineOf(op.Addr)
	cost := 0

	// Eager: the write is propagated immediately; any more-speculative
	// task that already read this word violated the dependence.
	if s.opts.Scheme == Eager {
		for j := t.idx + 1; j < len(s.tasks); j++ {
			v := s.tasks[j]
			if v.state == tsUnspawned {
				break
			}
			if v.active() && v.Line(line).R&core.WordBit(op.Addr) != 0 {
				s.stats.DepSetWords++
				s.squashFrom(j)
				break
			}
		}
		if t.Line(line).W == 0 {
			// First write to the line: broadcast the invalidation.
			cost += s.InvalidateOthers(p.id, line)
		}
	}

	// Bulk: Set Restriction check before the cache write.
	if t.Version != nil {
		d := p.module.PrepareWrite(t.Version, s.sigAddr(op.Addr))
		if !d.OK {
			// The set holds dirty lines of another speculative task on
			// this processor. Squash the more speculative of the two
			// (Section 4.5). The owner is an older task awaiting commit,
			// so that is us.
			s.stats.WrWrConflicts++
			victim := t.idx
			if d.ConflictOwner > t.idx {
				victim = d.ConflictOwner
			}
			s.squashFrom(victim)
			return 0, false
		}
		for _, wb := range d.SafeWritebacks {
			// Non-speculative dirty data is already reflected in
			// committed memory; the writeback is traffic only.
			p.cache.MarkClean(wb)
			s.Bus.Record(bus.WB, bus.WritebackBytes)
			cost += s.opts.Params.TransferCycles(bus.WritebackBytes)
		}
	}

	if p.cache.Access(cache.LineAddr(line)) == nil {
		cost += s.fill(p, t, line)
	} else {
		cost += s.opts.Params.HitLatency
	}
	p.cache.MarkDirty(cache.LineAddr(line))

	value := t.exec.WriteValue(t.opIdx, op)
	if t.spawned {
		t.WriteShadow(op.Addr, value)
	} else {
		t.Write(op.Addr, value)
	}
	if t.Version != nil {
		p.module.CommitWrite(t.Version, s.sigAddr(op.Addr))
	}
	return cost, true
}

// fill brings a line into p's cache on behalf of task t and returns the
// latency of the supplier it chooses: a less-speculative task's cache
// (forwarding), a neighbor with a non-speculative copy, or memory.
// More-speculative owners never supply. TLS lines carry no data: the
// values a task reads resolve through the write buffers and memory
// (taskRead).
func (s *System) fill(p *proc, t *task, line uint64) int {
	par := s.opts.Params
	latency := par.MemLatency

	// Forwarding: an active predecessor, newest first up to committed
	// state, buffers words of this line: exactly the lines it wrote.
	for i := t.idx - 1; i >= 0; i-- {
		pre := s.tasks[i]
		if pre.state == tsCommitted {
			break
		}
		if pre.active() && pre.Line(line).W != 0 {
			latency = par.NeighborLatency
			break
		}
	}
	if latency == par.MemLatency {
		// A neighbor cache with a non-speculative copy can supply; another
		// task's speculative data is nacked.
		latency = s.SupplyLatency(p.id, line, func(q int) bool { return s.specDirtyOwner(s.procs[q], line) != nil })
	}
	s.Bus.Record(bus.Fill, bus.FillBytes)
	if _, ev := p.cache.Insert(cache.LineAddr(line), cache.Clean); ev.State == cache.Dirty {
		// Speculative or not, the eviction is traffic; speculative values
		// survive in the owning task's write buffer.
		s.Bus.Record(bus.WB, bus.WritebackBytes)
	}
	return latency
}

// specDirtyOwner returns the active task on q whose write set covers the
// line, or nil.
func (s *System) specDirtyOwner(q *proc, line uint64) *task {
	for _, ti := range q.tasks {
		t := s.tasks[ti]
		if t.active() && t.Line(line).W != 0 {
			return t
		}
	}
	return nil
}
