package ckpt

import (
	"bulk/internal/core"
)

// The machine's snapshot envelope (core.Machine.Snapshot/Restore) captures
// memory, engine, bus counters, caches and BDM tables; SavePolicy and
// LoadPolicy add the episode state. The lineKeys buffer is dead at tick
// boundaries and is not captured.

// procSnap is the deep-copied state of one processor: its run-state
// value, copied whole, and its footprint, which records the BDM version as
// a module-table index.
//
//bulklint:snapstate
type procSnap struct {
	procRun
	core.FootprintState
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
func (s *System) SavePolicy(dst any) any {
	ps, _ := dst.(*policySnap)
	if ps == nil {
		ps = &policySnap{}
	}
	ps.stats = s.stats
	ps.log = append(ps.log[:0], s.log...)
	for len(ps.procs) < len(s.procs) {
		ps.procs = append(ps.procs, procSnap{})
	}
	for i, p := range s.procs {
		sn := &ps.procs[i]
		sn.procRun = p.procRun
		p.Footprint.Save(&sn.FootprintState, p.module)
	}
	return ps
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
		p.procRun = sn.procRun
		p.Footprint.Load(&sn.FootprintState, p.module)
	}
}
