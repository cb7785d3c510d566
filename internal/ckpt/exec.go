package ckpt

import (
	"fmt"

	"bulk/internal/bus"
	"bulk/internal/cache"
	"bulk/internal/core"
	"bulk/internal/mem"
	"bulk/internal/mutate"
	"bulk/internal/sig"
	"bulk/internal/sim"
	"bulk/internal/trace"
)

// CommitUnit is one entry of the serialization log.
type CommitUnit struct {
	Proc int
	Unit int
	// Op >= 0 marks a single plain write; -1 marks a whole episode.
	Op int
}

// opIndexFor derives the deterministic value-index of an op.
func opIndexFor(unit, i int) int { return unit*4096 + i }

// step advances one processor by one action.
func (s *System) step(p *proc) error {
	units := s.w.Procs[p.id].Units
	if p.unit >= len(units) {
		p.done = true
		s.Engine.Advance(p.id, 0)
		return nil
	}
	u := units[p.unit]
	if u.Episode != nil {
		return s.stepEpisode(p, u.Episode)
	}
	if p.opIdx >= len(u.Plain) {
		p.unit++
		p.opIdx = 0
		s.Engine.Advance(p.id, 1)
		return nil
	}
	op := u.Plain[p.opIdx]
	cost := s.plainOp(p, op)
	p.opIdx++
	s.Engine.Advance(p.id, int(op.Think)+cost)
	return nil
}

// plainOp executes one non-speculative op with immediate visibility.
func (s *System) plainOp(p *proc, op trace.Op) int {
	line := core.LineOf(op.Addr)
	cost := s.access(p, line, op.Kind != trace.Read)
	if op.Kind == trace.Read {
		p.exec.SetLastRead(uint64(s.Mem.Read(op.Addr)))
		return cost
	}
	v := trace.Value(p.id, opIndexFor(p.unit, p.opIdx), op.Addr)
	s.Mem.Write(op.Addr, mem.Word(v))
	s.log = append(s.log, CommitUnit{Proc: p.id, Unit: p.unit, Op: p.opIdx})
	s.invalidateRemote(p, line)
	return cost
}

// invalidateRemote broadcasts an invalidation for a line and disambiguates
// it against every speculative episode (the membership path of §4.2).
func (s *System) invalidateRemote(p *proc, line uint64) {
	s.Bus.Record(bus.Inv, bus.InvalidationBytes)
	s.applyRemoteInvalidation(p, line)
}

// applyRemoteInvalidation is invalidateRemote minus the bus accounting, so
// a commit invalidating a whole write set can charge the traffic in one
// coalesced RecordN call instead of one Meter update per line.
func (s *System) applyRemoteInvalidation(p *proc, line uint64) {
	for _, q := range s.procs {
		if q == p {
			continue
		}
		q.cache.Invalidate(cache.LineAddr(line))
		if q.stalled && q.tracking {
			if s.opts.Mutate.Has(mutate.SkipStalledRestart) {
				continue
			}
			base := line * core.WordsPerLine
			for w := 0; w < core.WordsPerLine; w++ {
				if q.readW.Has(base + uint64(w)) {
					s.restartStalled(q)
					break
				}
			}
			continue
		}
		if !q.spec {
			continue
		}
		hit := false
		exact := false
		base := line * core.WordsPerLine
		for w := 0; w < core.WordsPerLine; w++ {
			if q.readW.Has(base+uint64(w)) || q.writeW.Has(base+uint64(w)) {
				exact = true
				break
			}
		}
		if q.module != nil {
			hit = q.module.DisambiguateAddr(q.version, sig.Addr(line))
			if s.opts.Probe != nil {
				s.opts.Probe.EmitConflict(sim.ConflictEvent{
					Path: sim.PathInvalidation, Committer: p.id, Receiver: q.id,
					SigHit: hit, ExactHit: exact,
				})
			}
		} else {
			hit = exact
		}
		if hit {
			s.rollback(q, exact)
		}
	}
}

// access charges the cache/memory timing for touching a line.
func (s *System) access(p *proc, line uint64, write bool) int {
	par := s.opts.Params
	if l := p.cache.Access(cache.LineAddr(line)); l != nil {
		if write {
			p.cache.MarkDirty(l)
		}
		return par.HitLatency
	}
	st := cache.Clean
	if write {
		st = cache.Dirty
	}
	_, ev := p.cache.Insert(cache.LineAddr(line), st)
	if ev != nil && ev.State == cache.Dirty {
		s.Bus.Record(bus.WB, bus.WritebackBytes)
	}
	s.Bus.Record(bus.Fill, bus.FillBytes)
	return par.MemLatency
}

// stepEpisode drives the checkpointed episode state machine. Proc fields
// encode the phase: p.spec (speculating), p.attempts (0 = speculative
// attempt; >0 = non-speculative retry), p.opIdx (next op).
func (s *System) stepEpisode(p *proc, e *Episode) error {
	if p.attempts >= s.opts.RestartLimit {
		return fmt.Errorf("ckpt: proc %d restarted an episode %d times", p.id, p.attempts)
	}
	par := s.opts.Params
	switch {
	case s.opts.Mode == Stall || p.attempts > 0:
		// Non-speculative path: wait out the miss, then run the ops with
		// immediate visibility, then commit atomically.
		return s.runEpisodeStalled(p, e)
	case !p.spec && p.opIdx == 0:
		// Take the checkpoint and issue the long load under a predicted
		// value.
		p.spec = true
		p.specStart = s.Engine.Now()
		p.wbuf.Reset()
		p.readW.Reset()
		p.writeW.Reset()
		p.tracking = true
		p.ckptReg = p.exec.LastRead()
		if p.module != nil {
			v, err := p.module.AllocVersion(p.id)
			if err != nil {
				return fmt.Errorf("ckpt: proc %d: %w", p.id, err)
			}
			p.version = v
			p.module.SetRunning(v)
		}
		real := uint64(s.Mem.Read(e.MissAddr))
		pred := real
		if !e.PredictOK {
			pred = real ^ 1 // the prediction will fail validation
		}
		p.exec.SetLastRead(pred)
		s.recordRead(p, e.MissAddr)
		s.Engine.Advance(p.id, par.HitLatency)
		return nil
	case p.opIdx < len(e.Ops):
		op := e.Ops[p.opIdx]
		cost := s.specOp(p, op)
		if !p.spec {
			// The op's Set Restriction handling rolled us back.
			return nil
		}
		p.opIdx++
		s.Engine.Advance(p.id, int(op.Think)+cost)
		return nil
	default:
		// Validation point: the long load has resolved by
		// specStart+missLatency; commit cannot precede it.
		ready := p.specStart + missLatency
		if s.Engine.Now() < ready {
			s.Engine.AdvanceTo(p.id, ready)
			return nil
		}
		if !e.PredictOK {
			s.stats.MispredictRollbacks++
			s.rollbackInternal(p)
			return nil
		}
		// Commit-token decision: an explorer may defer the commit one
		// quantum, letting other processors' traffic land first.
		if s.Engine.Branch(sim.BranchCommit, 2, 1) == 0 {
			s.Engine.Advance(p.id, 1)
			return nil
		}
		s.commitEpisode(p, e)
		return nil
	}
}

// recordRead notes a speculative read of a word.
//
//bulklint:noalloc
func (s *System) recordRead(p *proc, word uint64) {
	p.readW.Add(word)
	if p.module != nil {
		p.module.OnRead(p.version, sig.Addr(core.LineOf(word)))
	}
}

// specOp executes one speculative episode op.
func (s *System) specOp(p *proc, op trace.Op) int {
	line := core.LineOf(op.Addr)
	cost := 0
	switch op.Kind {
	case trace.Read:
		if v, ok := p.wbuf.Get(op.Addr); ok {
			p.exec.SetLastRead(v)
			cost = s.opts.Params.HitLatency
		} else {
			cost = s.access(p, line, false)
			p.exec.SetLastRead(uint64(s.Mem.Read(op.Addr)))
		}
		s.recordRead(p, op.Addr)
	default:
		if p.module != nil {
			d := p.module.PrepareWrite(p.version, sig.Addr(line))
			if !d.OK {
				// Only one version exists per processor here; a conflict
				// cannot arise, but keep the code honest.
				s.rollback(p, true)
				return 0
			}
			for _, wb := range d.SafeWritebacks {
				p.cache.MarkClean(wb.Addr)
				s.Bus.Record(bus.WB, bus.WritebackBytes)
			}
		}
		cost = s.access(p, line, true)
		var v uint64
		if op.Kind == trace.WriteDep {
			v = trace.DepValue(p.exec.LastRead(), op.Addr)
		} else {
			v = trace.Value(p.id, opIndexFor(p.unit, p.opIdx), op.Addr)
		}
		p.wbuf.Put(op.Addr, v)
		p.writeW.Add(op.Addr)
		if p.module != nil {
			p.module.CommitWrite(p.version, sig.Addr(line))
		}
	}
	return cost
}

// commitEpisode validates and retires a speculative episode: apply the
// buffer, broadcast the write signature, clear it.
func (s *System) commitEpisode(p *proc, e *Episode) {
	par := s.opts.Params
	var packet int
	var wc *sig.Signature
	if p.module != nil {
		// The committer's W is read-only from here until finishEpisode
		// clears it (after the receiver loop), so no defensive clone.
		wc = p.version.W
		packet = bus.SignatureCommitBytes(sig.RLEncodedBits(wc))
	} else {
		// Exact mode: build the committed write-line set once; the sorted
		// keys drive the per-receiver invalidations below.
		s.lineScratch.Reset()
		p.writeW.Range(func(wAddr uint64) bool { // building a set; order cannot escape
			s.lineScratch.Add(core.LineOf(wAddr))
			return true
		})
		s.lineKeys = s.lineScratch.SortedKeys(s.lineKeys[:0])
		packet = bus.AddressListCommitBytes(len(s.lineKeys))
	}
	s.Bus.RecordCommit(packet)
	busDone := s.Engine.AcquireBus(par.CommitArbitration + par.TransferCycles(packet))

	s.keyScratch = p.wbuf.SortedKeys(s.keyScratch[:0])
	for _, a := range s.keyScratch {
		v, _ := p.wbuf.Get(a)
		s.Mem.Write(a, mem.Word(v))
	}
	s.log = append(s.log, CommitUnit{Proc: p.id, Unit: p.unit, Op: -1})
	s.stats.Episodes++

	// Receivers: disambiguate running episodes and invalidate stale
	// copies of the committed lines (s.lineKeys, built above, holds the
	// committer's write lines in sorted order for the exact path).
	for _, q := range s.procs {
		if q == p {
			continue
		}
		switch {
		case q.spec:
			exact := false
			p.writeW.Range(func(wAddr uint64) bool { // order-independent boolean reduction
				if q.readW.Has(wAddr) || q.writeW.Has(wAddr) {
					exact = true
					return false
				}
				return true
			})
			hit := exact
			if q.module != nil && wc != nil {
				hit = q.module.Disambiguate(q.version, wc)
				if s.opts.Probe != nil {
					s.opts.Probe.EmitConflict(sim.ConflictEvent{
						Path: sim.PathCommit, Committer: p.id, Receiver: q.id,
						SigHit: hit, ExactHit: exact,
					})
				}
			}
			if hit {
				s.rollback(q, exact)
			}
		case q.stalled && q.tracking:
			if s.opts.Mutate.Has(mutate.SkipStalledRestart) {
				break
			}
			p.writeW.Range(func(wAddr uint64) bool { // restart fires at most once, on any hit
				if q.readW.Has(wAddr) {
					s.restartStalled(q)
					return false
				}
				return true
			})
		}
		if q.module != nil && wc != nil {
			q.module.CommitInvalidate(wc)
		} else {
			for _, l := range s.lineKeys {
				q.cache.Invalidate(cache.LineAddr(l))
			}
		}
	}

	s.finishEpisode(p)
	s.Engine.AdvanceTo(p.id, busDone)
}

// finishEpisode releases speculative state after a commit.
func (s *System) finishEpisode(p *proc) {
	if p.module != nil {
		p.module.ClearVersion(p.version)
		p.module.FreeVersion(p.version)
		p.version = nil
	}
	p.spec = false
	p.wbuf.Reset()
	p.tracking = false
	p.attempts = 0
	p.unit++
	p.opIdx = 0
}

// rollback aborts a speculative episode from the outside (a conflicting
// remote write or commit). exact tells whether the conflict was real.
func (s *System) rollback(q *proc, exact bool) {
	s.stats.ConflictRollbacks++
	if !exact {
		s.stats.FalseRollbacks++
	}
	s.rollbackInternal(q)
}

// rollbackInternal discards the episode's speculative state and schedules
// the non-speculative retry.
func (s *System) rollbackInternal(q *proc) {
	s.stats.Rollbacks++
	if q.module != nil {
		q.module.SquashInvalidate(q.version, false)
		q.module.FreeVersion(q.version)
		q.version = nil
	} else {
		s.keyScratch = q.writeW.SortedKeys(s.keyScratch[:0])
		for _, wAddr := range s.keyScratch {
			l := core.LineOf(wAddr)
			if cl := q.cache.Lookup(cache.LineAddr(l)); cl != nil && cl.State == cache.Dirty {
				q.cache.Invalidate(cache.LineAddr(l))
			}
		}
	}
	q.spec = false
	q.wbuf.Reset()
	q.tracking = false
	q.exec.SetLastRead(q.ckptReg)
	q.opIdx = 0
	q.attempts++
	// The retry waits for the real load value plus the restart overhead.
	at := q.specStart + missLatency
	if now := s.Engine.Now(); now > at {
		at = now
	}
	at += int64(s.opts.Params.SquashOverhead)
	s.Engine.Unpark(q.id, at)
}

// runEpisodeStalled executes an episode non-speculatively: wait for the
// load (unless a rollback already waited it out), run the ops buffering
// the writes, then apply them atomically and log one unit.
func (s *System) runEpisodeStalled(p *proc, e *Episode) error {
	par := s.opts.Params
	if p.opIdx == 0 && !p.stalled {
		p.stalled = true
		p.wbuf.Reset()
		p.readW.Reset()
		p.tracking = true
		p.ckptReg = p.exec.LastRead()
		if p.attempts == 0 {
			// Stall mode pays the full miss latency; a retry after a
			// rollback already waited for the value.
			s.stats.StallCycles += missLatency
			s.Engine.Advance(p.id, missLatency)
			return nil
		}
	}
	if p.opIdx == 0 {
		p.exec.SetLastRead(uint64(s.Mem.Read(e.MissAddr)))
		p.readW.Add(e.MissAddr)
	}
	if p.opIdx < len(e.Ops) {
		op := e.Ops[p.opIdx]
		line := core.LineOf(op.Addr)
		cost := s.access(p, line, op.Kind != trace.Read)
		if op.Kind == trace.Read {
			p.readW.Add(op.Addr)
			if v, ok := p.wbuf.Get(op.Addr); ok {
				p.exec.SetLastRead(v)
			} else {
				p.exec.SetLastRead(uint64(s.Mem.Read(op.Addr)))
			}
		} else {
			var v uint64
			if op.Kind == trace.WriteDep {
				v = trace.DepValue(p.exec.LastRead(), op.Addr)
			} else {
				v = trace.Value(p.id, opIndexFor(p.unit, p.opIdx), op.Addr)
			}
			p.wbuf.Put(op.Addr, v)
		}
		p.opIdx++
		s.Engine.Advance(p.id, int(op.Think)+cost)
		return nil
	}
	// Commit-token decision mirroring the speculative path: an explorer may
	// hold the atomic apply back one quantum.
	if s.Engine.Branch(sim.BranchCommit, 2, 1) == 0 {
		s.Engine.Advance(p.id, 1)
		return nil
	}
	// Apply atomically, invalidate, and log one unit. The invalidation
	// traffic is charged as one coalesced batch.
	s.lineScratch.Reset()
	s.keyScratch = p.wbuf.SortedKeys(s.keyScratch[:0])
	for _, a := range s.keyScratch {
		v, _ := p.wbuf.Get(a)
		s.Mem.Write(a, mem.Word(v))
		s.lineScratch.Add(core.LineOf(a))
	}
	s.lineKeys = s.lineScratch.SortedKeys(s.lineKeys[:0])
	s.Bus.RecordN(bus.Inv, bus.InvalidationBytes, len(s.lineKeys))
	for _, l := range s.lineKeys {
		s.applyRemoteInvalidation(p, l)
	}
	s.log = append(s.log, CommitUnit{Proc: p.id, Unit: p.unit, Op: -1})
	s.stats.Episodes++
	p.stalled = false
	p.wbuf.Reset()
	p.tracking = false
	p.attempts = 0
	p.unit++
	p.opIdx = 0
	s.Engine.Advance(p.id, par.HitLatency)
	return nil
}

// restartStalled re-runs a stalled episode whose read set was invalidated
// before it could commit atomically.
func (s *System) restartStalled(q *proc) {
	s.stats.Rollbacks++
	s.stats.ConflictRollbacks++
	q.wbuf.Reset()
	q.readW.Reset()
	q.tracking = true
	q.exec.SetLastRead(q.ckptReg)
	q.opIdx = 0
	q.attempts++
	at := s.Engine.Now() + int64(s.opts.Params.SquashOverhead)
	s.Engine.Unpark(q.id, at)
}
