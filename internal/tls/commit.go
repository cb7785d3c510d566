package tls

import (
	"bulk/internal/bus"
	"bulk/internal/cache"
	"bulk/internal/core"
	"bulk/internal/mem"
	"bulk/internal/mutate"
	"bulk/internal/sig"
	"bulk/internal/sim"
)

// tryCommitChain commits every finished task at the head of the task order
// (in-order commit: task i commits only after task i-1).
func (s *System) tryCommitChain() {
	for s.commitNext < len(s.tasks) && s.tasks[s.commitNext].state == tsFinished {
		// Commit-token decision: an explorer may defer the grant, leaving
		// the finished task at the head; step retries it next quantum.
		if s.Engine.Branch(sim.BranchCommit, 2, 1) == 0 {
			return
		}
		s.commitTask(s.tasks[s.commitNext])
	}
}

// commitTask retires task t: broadcast per scheme, apply the write buffer
// to committed memory, disambiguate more-speculative tasks (squashing
// violators and their children), and invalidate or merge stale copies.
func (s *System) commitTask(t *task) {
	p := s.procs[t.proc]
	par := s.opts.Params

	// Commit packet.
	var packetBytes int
	switch s.opts.Scheme {
	case Eager:
		packetBytes = bus.HeaderBytes
		s.Bus.Record(bus.Coh, packetBytes)
	case Lazy:
		packetBytes = bus.AddressListCommitBytes(t.writeW.Len())
		s.Bus.RecordCommit(packetBytes)
	case Bulk:
		bits := sig.RLEncodedBits(t.version.W)
		if t.version.Wsh != nil {
			// Partial Overlap sends both W and Wsh (Figure 9).
			bits += sig.RLEncodedBits(t.version.Wsh)
		}
		packetBytes = bus.SignatureCommitBytes(bits)
		s.Bus.RecordCommit(packetBytes)
	}
	s.Engine.AcquireBus(par.CommitArbitration + par.TransferCycles(packetBytes))

	// Commit the values.
	s.keyScratch = t.wbuf.SortedKeys(s.keyScratch[:0])
	for _, a := range s.keyScratch {
		v, _ := t.wbuf.Get(a)
		s.Mem.Write(a, mem.Word(v))
	}
	s.stats.Commits++
	s.stats.ReadSetWords += uint64(t.readW.Len())
	s.stats.WriteSetWords += uint64(t.writeW.Len())

	// Disambiguate more-speculative tasks; the first violator and its
	// children are squashed.
	s.disambiguateCommit(t)

	// Invalidate/merge stale copies in the other processors' caches.
	s.invalidateCommit(t)

	// Release the committer's state.
	if t.version != nil {
		p.module.ClearVersion(t.version)
		p.module.FreeVersion(t.version)
		t.version = nil
	}
	for i, ti := range p.tasks {
		if ti == t.idx {
			p.tasks = append(p.tasks[:i], p.tasks[i+1:]...)
			break
		}
	}
	t.state = tsCommitted
	s.commitNext++
	s.unparkAll()
}

// disambiguateCommit applies the committing task's write set/signature to
// every more-speculative active task, in order, honoring Partial Overlap
// for the first child.
func (s *System) disambiguateCommit(t *task) {
	for j := t.idx + 1; j < len(s.tasks); j++ {
		v := s.tasks[j]
		if v.state == tsUnspawned {
			break
		}
		if !v.active() {
			continue
		}
		firstChild := j == t.idx+1

		// Exact ground truth: the dependence set is the committer's write
		// set intersected with the victim's read and write sets.
		exactW := &t.writeW
		if firstChild && s.usesOverlap() {
			exactW = &t.postSpawnW
		}
		exactDep := uint64(0)
		exactW.Range(func(a uint64) bool { // order-independent count
			if v.readW.Has(a) || v.writeW.Has(a) {
				exactDep++
			}
			return true
		})
		// At line granularity the honest ground truth is line overlap:
		// same-line-different-word conflicts are real consequences of the
		// coarse encoding, not aliasing.
		realOverlap := exactDep > 0
		if s.opts.LineGranularity && !realOverlap {
			exactW.Range(func(a uint64) bool { // order-independent boolean reduction
				l := core.LineOf(a)
				if v.readL.Has(l) || v.writeL.Has(l) {
					realOverlap = true
					return false
				}
				return true
			})
		}

		violated := false
		switch s.opts.Scheme {
		case Eager:
			// Violations were handled at write time.
		case Lazy:
			// Exact word-level lazy: only read-after-write needs a
			// squash; exact write-write merges by commit order.
			exactW.Range(func(a uint64) bool { // order-independent boolean reduction
				if v.readW.Has(a) {
					violated = true
					return false
				}
				return true
			})
		case Bulk:
			wc := t.version.W
			if firstChild && s.opts.PartialOverlap && t.version.Wsh != nil {
				wc = t.version.Wsh
			}
			violated = s.procs[v.proc].module.Disambiguate(v.version, wc)
			if s.opts.Probe != nil {
				// realOverlap already honors the first-child Partial
				// Overlap exemption (exactW is the post-spawn set there),
				// so it is the exact truth wc must imply.
				s.opts.Probe.EmitConflict(sim.ConflictEvent{
					Path: sim.PathCommit, Committer: t.idx, Receiver: v.idx,
					SigHit: violated, ExactHit: realOverlap,
				})
			}
		}
		if violated {
			if !realOverlap {
				s.stats.FalseSquashes++
			} else {
				s.stats.DepSetWords += exactDep
			}
			s.squashFrom(j)
			return
		}
	}
}

// usesOverlap reports whether the scheme excludes pre-spawn writes when
// disambiguating the first child.
func (s *System) usesOverlap() bool {
	switch s.opts.Scheme {
	case Lazy:
		return true // the paper's Lazy includes the exact equivalent
	case Bulk:
		return s.opts.PartialOverlap
	default:
		return false
	}
}

// invalidateCommit removes stale copies of the committer's lines from the
// other processors' caches, merging partially-updated dirty lines at word
// granularity (Section 4.4).
func (s *System) invalidateCommit(t *task) {
	switch s.opts.Scheme {
	case Eager:
		return // invalidations were sent at write time
	case Bulk:
		wc := t.version.W
		for _, q := range s.procs {
			if q.id == t.proc {
				continue
			}
			invalidated, merges := q.module.CommitInvalidate(wc)
			for _, l := range invalidated {
				if !t.writeL.Has(uint64(l)) {
					s.stats.FalseInvalidations++
				}
			}
			for _, m := range merges {
				s.mergeLine(q, m.Version.Owner, uint64(m.Addr))
			}
		}
	case Lazy:
		s.keyScratch = t.writeL.SortedKeys(s.keyScratch[:0])
		for _, q := range s.procs {
			if q.id == t.proc {
				continue
			}
			for _, lAddr := range s.keyScratch {
				cl := q.cache.Lookup(cache.LineAddr(lAddr))
				if cl == nil {
					continue
				}
				if cl.State == cache.Dirty {
					if owner := s.specDirtyOwner(q, lAddr); owner != nil {
						s.mergeLine(q, owner.idx, lAddr)
						continue
					}
				}
				q.cache.Invalidate(cache.LineAddr(lAddr))
			}
		}
	}
}

// mergeLine implements the line merge of Figure 6: the committed version of
// the line is fetched and the local speculative words (exact, from the
// owner's write buffer) are overlaid; the merged line stays dirty in the
// owner's cache.
//
//bulklint:noalloc
func (s *System) mergeLine(q *proc, ownerIdx int, line uint64) {
	owner := s.tasks[ownerIdx]
	cl := q.cache.Lookup(cache.LineAddr(line))
	if cl == nil || !owner.active() {
		return
	}
	s.stats.Merges++
	s.Bus.Record(bus.Fill, bus.FillBytes) // committed line read from the network
	base := line * core.WordsPerLine
	for w := 0; w < core.WordsPerLine; w++ {
		a := base + uint64(w)
		if v, ok := owner.wbuf.Get(a); ok {
			cl.Data[w] = v
		} else {
			cl.Data[w] = uint64(s.Mem.Read(a))
		}
	}
}

// squashFrom squashes the task at index start and every more-speculative
// active task (the cascade). The caller classifies the direct squash;
// cascaded squashes are counted here.
func (s *System) squashFrom(start int) {
	if s.opts.Mutate.Has(mutate.SkipSquashCascade) {
		// Mutation: squash only the direct violator, leaving its
		// (dependent) successors running on forwarded data.
		if t := s.tasks[start]; t.active() {
			s.squashOne(t)
		}
		return
	}
	first := true
	for k := start; k < len(s.tasks); k++ {
		t := s.tasks[k]
		if t.state == tsUnspawned {
			break
		}
		if !first {
			// Any more-speculative task — running, finished, awaiting a
			// restart, or spawned but not yet started — may only
			// (re)start after its own (also squashed) parent re-crosses
			// its spawn point and regenerates the live-ins.
			t.awaitSpawn = true
		}
		if t.active() {
			s.squashOne(t)
			if !first {
				s.stats.CascadeSquashes++
			}
		}
		first = false
	}
}

// squashOne discards one task's speculative state and schedules its
// restart.
func (s *System) squashOne(t *task) {
	p := s.procs[t.proc]
	s.stats.Squashes++
	if t.version != nil {
		// Bulk: discard dirty lines via W and read lines via R
		// (Section 6.3 — reads may hold forwarded data from a squashed
		// predecessor).
		p.module.SquashInvalidate(t.version, true)
	} else {
		s.keyScratch = t.writeL.SortedKeys(s.keyScratch[:0])
		for _, l := range s.keyScratch {
			if cl := p.cache.Lookup(cache.LineAddr(l)); cl != nil && cl.State == cache.Dirty {
				p.cache.Invalidate(cache.LineAddr(l))
			}
		}
		s.keyScratch = t.readL.SortedKeys(s.keyScratch[:0])
		for _, l := range s.keyScratch {
			if cl := p.cache.Lookup(cache.LineAddr(l)); cl != nil && cl.State == cache.Clean {
				p.cache.Invalidate(cache.LineAddr(l))
			}
		}
	}
	t.resetSpec()
	t.state = tsReady
	t.restartAt = s.Engine.Now() + int64(s.opts.Params.SquashOverhead)
	t.attempts++
	if t.attempts >= s.opts.RestartLimit {
		s.stats.LivelockDetected = true
	}
	if s.Engine.Parked(p.id) {
		s.stats.StallCycles += s.Engine.Now() - p.parkedAt
		s.Engine.Unpark(p.id, s.Engine.Now())
	}
}
