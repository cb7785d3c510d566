package tls

import (
	"bulk/internal/flatmap"
)

// The machine's snapshot envelope (core.Machine.Snapshot/Restore) captures
// memory, engine, bus counters, caches and BDM tables; SavePolicy and
// LoadPolicy add the task state. The keyScratch/supScratch buffers are
// dead at tick boundaries and are not captured.

// taskSnap is the deep-copied state of one speculative task. The BDM
// version is recorded as an index into the owning processor's module
// table (-1 when nil) so LoadPolicy can re-resolve it in the reloaded
// module.
//
//bulklint:snapstate
type taskSnap struct {
	state      taskState
	proc       int
	opIdx      int
	attempts   int
	lastRead   uint64
	wbuf       flatmap.Map[uint64]
	readW      flatmap.Set
	writeW     flatmap.Set
	readL      flatmap.Set
	writeL     flatmap.Set
	postSpawnW flatmap.Set
	spawned    bool
	awaitSpawn bool
	versionIdx int
	restartAt  int64
}

// procSnap is the policy state of one processor.
//
//bulklint:snapstate
type procSnap struct {
	tasks    []int
	parkedAt int64
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
func (s *System) SavePolicy(dst any) (any, int) {
	ps, _ := dst.(*policySnap)
	if ps == nil {
		ps = &policySnap{}
	}
	ps.stats = s.stats
	ps.commitNext = s.commitNext
	for len(ps.procs) < len(s.procs) {
		ps.procs = append(ps.procs, procSnap{})
	}
	size := 0
	for i, p := range s.procs {
		sn := &ps.procs[i]
		sn.tasks = append(sn.tasks[:0], p.tasks...)
		sn.parkedAt = p.parkedAt
		size += 32 + 8*cap(sn.tasks)
	}
	for len(ps.tasks) < len(s.tasks) {
		ps.tasks = append(ps.tasks, taskSnap{})
	}
	for i, t := range s.tasks {
		ts := &ps.tasks[i]
		ts.state, ts.proc = t.state, t.proc
		ts.opIdx, ts.attempts = t.opIdx, t.attempts
		ts.lastRead = t.exec.LastRead()
		ts.wbuf.CopyFrom(&t.wbuf)
		ts.readW.CopyFrom(&t.readW)
		ts.writeW.CopyFrom(&t.writeW)
		ts.readL.CopyFrom(&t.readL)
		ts.writeL.CopyFrom(&t.writeL)
		ts.postSpawnW.CopyFrom(&t.postSpawnW)
		ts.spawned, ts.awaitSpawn = t.spawned, t.awaitSpawn
		ts.versionIdx = -1
		if t.version != nil {
			ts.versionIdx = s.procs[t.proc].module.IndexOfVersion(t.version)
		}
		ts.restartAt = t.restartAt
		size += 96 + 17*ts.wbuf.Cap() +
			9*(ts.readW.Cap()+ts.writeW.Cap()+ts.readL.Cap()+ts.writeL.Cap()+ts.postSpawnW.Cap())
	}
	return ps, size
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
		p.tasks = append(p.tasks[:0], sn.tasks...)
		p.parkedAt = sn.parkedAt
	}
	for i, t := range s.tasks {
		ts := &ps.tasks[i]
		t.state, t.proc = ts.state, ts.proc
		t.opIdx, t.attempts = ts.opIdx, ts.attempts
		t.exec.SetLastRead(ts.lastRead)
		t.wbuf.CopyFrom(&ts.wbuf)
		t.readW.CopyFrom(&ts.readW)
		t.writeW.CopyFrom(&ts.writeW)
		t.readL.CopyFrom(&ts.readL)
		t.writeL.CopyFrom(&ts.writeL)
		t.postSpawnW.CopyFrom(&ts.postSpawnW)
		t.spawned, t.awaitSpawn = ts.spawned, ts.awaitSpawn
		t.version = nil
		if ts.versionIdx >= 0 {
			t.version = s.procs[t.proc].module.VersionAt(ts.versionIdx)
		}
		t.restartAt = ts.restartAt
	}
}
