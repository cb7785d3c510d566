package tls

import (
	"bulk/internal/bdm"
	"bulk/internal/core"
	"bulk/internal/flatmap"
)

// The machine's snapshot envelope (core.Machine.Snapshot/Restore) captures
// memory, engine, bus counters, caches and BDM tables; SavePolicy and
// LoadPolicy add the task state. The keyScratch buffer is dead at tick
// boundaries and is not captured.

// taskSnap is the deep-copied state of one speculative task: its
// run-state value, copied whole, and deep copies of its sets. Its
// footprint records the BDM version as an index into the owning
// processor's module table.
//
//bulklint:snapstate
type taskSnap struct {
	taskRun
	core.FootprintState
	postSpawnW flatmap.Set
}

// procSnap is the policy state of one processor.
//
//bulklint:snapstate
type procSnap struct {
	procRun
	tasks []int
}

// policySnap is the task state of a snapshot. The zero value grows on
// first capture; re-capturing into it reuses its storage.
//
//bulklint:snapstate
type policySnap struct {
	stats      Stats
	commitNext int
	procs      []procSnap
	tasks      []taskSnap
}

// SavePolicy implements core.Policy: it captures the task state into dst
// (a *policySnap, or nil to allocate one).
//
//bulklint:captures snapshot
//bulklint:captures snapshot policySnap procSnap taskSnap proc task
func (s *System) SavePolicy(dst any) any {
	ps, _ := dst.(*policySnap)
	if ps == nil {
		ps = &policySnap{}
	}
	ps.stats = s.stats
	ps.commitNext = s.commitNext
	for len(ps.procs) < len(s.procs) {
		ps.procs = append(ps.procs, procSnap{})
	}
	for i, p := range s.procs {
		sn := &ps.procs[i]
		sn.procRun = p.procRun
		sn.tasks = append(sn.tasks[:0], p.tasks...)
	}
	for len(ps.tasks) < len(s.tasks) {
		ps.tasks = append(ps.tasks, taskSnap{})
	}
	for i, t := range s.tasks {
		ts := &ps.tasks[i]
		ts.taskRun = t.taskRun
		ts.postSpawnW.CopyFrom(&t.postSpawnW)
		t.Footprint.Save(&ts.FootprintState, s.moduleOf(t))
	}
	return ps
}

// LoadPolicy implements core.Policy: it rewinds the task state to a
// SavePolicy capture.
//
//bulklint:captures restore
//bulklint:captures restore policySnap procSnap taskSnap proc task
func (s *System) LoadPolicy(src any) {
	ps := src.(*policySnap)
	s.stats = ps.stats
	s.commitNext = ps.commitNext
	for i, p := range s.procs {
		sn := &ps.procs[i]
		p.procRun = sn.procRun
		p.tasks = append(p.tasks[:0], sn.tasks...)
	}
	for i, t := range s.tasks {
		ts := &ps.tasks[i]
		t.taskRun = ts.taskRun
		t.postSpawnW.CopyFrom(&ts.postSpawnW)
		t.Footprint.Load(&ts.FootprintState, s.moduleOf(t))
	}
}

// moduleOf returns the BDM of the processor t is assigned to: nil when t
// is unassigned or the scheme runs without signatures.
func (s *System) moduleOf(t *task) *bdm.Module {
	if t.proc < 0 {
		return nil
	}
	return s.procs[t.proc].module
}
