package tls

import (
	"bulk/internal/bus"
	"bulk/internal/cache"
	"bulk/internal/core"
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
		packetBytes = bus.AddressListCommitBytes(t.WrittenWords())
		s.Bus.RecordCommit(packetBytes)
	case Bulk:
		bits := sig.RLEncodedBits(t.Version.W)
		if t.Version.Wsh != nil {
			// Partial Overlap sends both W and Wsh (Figure 9).
			bits += sig.RLEncodedBits(t.Version.Wsh)
		}
		packetBytes = bus.SignatureCommitBytes(bits)
		s.Bus.RecordCommit(packetBytes)
	}
	s.Engine.AcquireBus(par.CommitArbitration + par.TransferCycles(packetBytes))

	// Commit the values.
	s.Apply(t.Footprint)
	s.stats.ReadSetWords += uint64(t.ReadWords())
	s.stats.WriteSetWords += uint64(t.WrittenWords())

	// Disambiguate more-speculative tasks; the first violator and its
	// children are squashed.
	s.disambiguateCommit(t)

	// Invalidate/merge stale copies in the other processors' caches.
	s.invalidateCommit(t)

	// Release the committer's state.
	if t.Version != nil {
		p.module.ClearVersion(t.Version)
		p.module.FreeVersion(t.Version)
	}
	s.release(t)
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
		// set — for a first child under Partial Overlap, only its
		// post-spawn part — intersected with the victim's read and write
		// sets. Its Read part is the read-after-write. At line
		// granularity the honest ground truth is line overlap:
		// same-line-different-word conflicts are real consequences of the
		// coarse encoding, not aliasing.
		dep := t.Overlap(v.Line, firstChild && s.usesOverlap())
		exactDep := uint64(dep.Words)
		realOverlap := exactDep > 0 || s.opts.LineGranularity && dep.Lines > 0

		violated := false
		switch s.opts.Scheme {
		case Eager:
			// Violations were handled at write time.
		case Lazy:
			// Exact word-level lazy: only read-after-write needs a
			// squash; exact write-write merges by commit order.
			violated = dep.Read
		case Bulk:
			wc := t.Version.W
			if firstChild && s.opts.PartialOverlap && t.Version.Wsh != nil {
				wc = t.Version.Wsh
			}
			violated = s.procs[v.proc].module.Disambiguate(v.Version, wc)
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
		wc := t.Version.W
		for _, q := range s.procs {
			if q.id == t.proc {
				continue
			}
			invalidated, merges := q.module.CommitInvalidate(wc)
			for _, l := range invalidated {
				if t.Line(uint64(l)).W == 0 {
					s.stats.FalseInvalidations++
				}
			}
			for _, m := range merges {
				s.mergeLine(q, m.Version.Owner, uint64(m.Addr))
			}
		}
	case Lazy:
		s.keyScratch = t.SortedLines(s.keyScratch[:0], core.Writes)
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
// the line is fetched and the local speculative words are overlaid; the
// merged line stays dirty in the owner's cache. TLS lines carry no data
// (the owner's words stay in its write buffer), so the merge is the
// fetch's traffic and the merge count.
//
//bulklint:noalloc
func (s *System) mergeLine(q *proc, ownerIdx int, line uint64) {
	if !s.tasks[ownerIdx].active() || !q.cache.Contains(cache.LineAddr(line)) {
		return
	}
	s.stats.Merges++
	s.Bus.Record(bus.Fill, bus.FillBytes) // committed line read from the network
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
	if t.Version != nil {
		// Bulk: discard dirty lines via W and read lines via R
		// (Section 6.3 — reads may hold forwarded data from a squashed
		// predecessor).
		p.module.SquashInvalidate(t.Version, true)
	} else {
		s.Drop(p.id, t.Footprint, core.Writes, cache.Dirty)
		s.Drop(p.id, t.Footprint, core.Reads, cache.Clean)
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
