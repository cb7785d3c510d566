package ckpt

import (
	"bulk/internal/flatmap"
)

// The machine's snapshot envelope (core.Machine.Snapshot/Restore) captures
// memory, engine, bus counters, caches and BDM tables; SavePolicy and
// LoadPolicy add the episode state. The keyScratch/lineScratch buffers are
// dead at tick boundaries and are not captured.

// procSnap is the deep-copied state of one processor. The BDM version is
// recorded as a module-table index (-1 when nil) so LoadPolicy can
// re-resolve it in the reloaded module.
//
//bulklint:snapstate
type procSnap struct {
	lastRead   uint64
	unit       int
	opIdx      int
	done       bool
	spec       bool
	versionIdx int
	wbuf       flatmap.Map[uint64]
	readW      flatmap.Set
	writeW     flatmap.Set
	tracking   bool
	attempts   int
	specStart  int64
	ckptReg    uint64
	stalled    bool
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
		sn.versionIdx = -1
		if p.version != nil {
			sn.versionIdx = p.module.IndexOfVersion(p.version)
		}
		sn.wbuf.CopyFrom(&p.wbuf)
		sn.readW.CopyFrom(&p.readW)
		sn.writeW.CopyFrom(&p.writeW)
		sn.tracking, sn.attempts = p.tracking, p.attempts
		sn.specStart, sn.ckptReg, sn.stalled = p.specStart, p.ckptReg, p.stalled
		size += 64 + 17*sn.wbuf.Cap() + 9*(sn.readW.Cap()+sn.writeW.Cap())
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
		p.version = nil
		if sn.versionIdx >= 0 {
			p.version = p.module.VersionAt(sn.versionIdx)
		}
		p.wbuf.CopyFrom(&sn.wbuf)
		p.readW.CopyFrom(&sn.readW)
		p.writeW.CopyFrom(&sn.writeW)
		p.tracking, p.attempts = sn.tracking, sn.attempts
		p.specStart, p.ckptReg, p.stalled = sn.specStart, sn.ckptReg, sn.stalled
	}
}
