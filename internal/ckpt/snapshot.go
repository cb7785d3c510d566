package ckpt

import (
	"bulk/internal/core"
)

// The machine's snapshot envelope (core.Machine.Snapshot/Restore) captures
// memory, engine, bus counters, caches and BDM tables; SavePolicy and
// LoadPolicy add the episode state. The lineKeys buffer is dead at tick
// boundaries and is not captured.

// procSnap is the deep-copied state of one processor. Its footprint
// records the BDM version as a module-table index.
//
//bulklint:snapstate
type procSnap struct {
	core.FootprintState
	lastRead  uint64
	unit      int
	opIdx     int
	done      bool
	spec      bool
	tracking  bool
	attempts  int
	specStart int64
	ckptReg   uint64
	stalled   bool
}

// policySnap is the episode state of a snapshot. The zero value grows on
// first capture; re-capturing into it reuses its storage.
//
//bulklint:snapstate
type policySnap struct {
	stats Stats
	log   []CommitUnit
	procs []procSnap
}

// SavePolicy implements core.Policy: it captures the episode state into
// dst (a *policySnap, or nil to allocate one).
//
//bulklint:captures snapshot
//bulklint:captures snapshot policySnap procSnap proc
func (s *System) SavePolicy(dst any) (any, int) {
	ps, _ := dst.(*policySnap)
	if ps == nil {
		ps = &policySnap{}
	}
	ps.stats = s.stats
	ps.log = append(ps.log[:0], s.log...)
	for len(ps.procs) < len(s.procs) {
		ps.procs = append(ps.procs, procSnap{})
	}
	size := 24 * cap(ps.log)
	for i, p := range s.procs {
		sn := &ps.procs[i]
		sn.lastRead = p.exec.LastRead()
		sn.unit, sn.opIdx, sn.done = p.unit, p.opIdx, p.done
		sn.spec = p.spec
		sn.tracking, sn.attempts = p.tracking, p.attempts
		sn.specStart, sn.ckptReg, sn.stalled = p.specStart, p.ckptReg, p.stalled
		size += 64 + p.Footprint.Save(&sn.FootprintState, p.module)
	}
	return ps, size
}

// LoadPolicy implements core.Policy: it rewinds the episode state to a
// SavePolicy capture.
//
//bulklint:captures restore
//bulklint:captures restore policySnap procSnap proc
func (s *System) LoadPolicy(src any) {
	ps := src.(*policySnap)
	s.stats = ps.stats
	s.log = append(s.log[:0], ps.log...)
	for i, p := range s.procs {
		sn := &ps.procs[i]
		p.exec.SetLastRead(sn.lastRead)
		p.unit, p.opIdx, p.done = sn.unit, sn.opIdx, sn.done
		p.spec = sn.spec
		p.tracking, p.attempts = sn.tracking, sn.attempts
		p.specStart, p.ckptReg, p.stalled = sn.specStart, sn.ckptReg, sn.stalled
		p.Footprint.Load(&sn.FootprintState, p.module)
	}
}
