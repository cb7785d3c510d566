package core

import (
	"bulk/internal/bdm"
	"bulk/internal/bus"
	"bulk/internal/cache"
	"bulk/internal/mem"
	"bulk/internal/sim"
)

// Snapshots. The model checker runs thousands of schedules on one pooled
// machine per worker; Snapshot/Restore let it capture the machine before
// its first quantum and rewind to that capture before every schedule
// instead of rebuilding the machine. A capture may be taken at any
// RunUntil pause point between scheduling quanta, as the runtimes'
// round-trip tests do mid-run. The envelope deep-copies the machine —
// committed memory, the engine clock, the bus counters, every cache and
// BDM version table — and asks the policy to capture its own state, so a
// restored run is byte-identical to one that executed up to the capture
// from scratch. Policy scratch buffers are dead between quanta and are
// not captured.

// Snapshot is a deep copy of a machine's run state. The zero value grows
// on first capture; re-capturing into the same Snapshot reuses its
// storage, so the steady state of a snapshot pool is pure memcopy.
//
//bulklint:snapstate
type Snapshot struct {
	mem     mem.Memory
	engine  sim.EngineState
	bus     bus.Bandwidth
	caches  []cache.Snapshot
	modules []bdm.ModuleState
	policy  any
}

// Snapshot captures the machine and its policy into dst (allocating one
// if nil) and returns it. Must be called at a RunUntil pause point —
// between scheduling quanta — where all scratch state is dead.
//
//bulklint:captures snapshot Snapshot Machine
func (m *Machine[R]) Snapshot(dst *Snapshot) *Snapshot {
	if dst == nil {
		dst = &Snapshot{}
	}
	dst.mem.CopyFrom(m.Mem)
	m.Engine.SaveState(&dst.engine)
	dst.bus = m.Bus
	for len(dst.caches) < len(m.Caches) {
		dst.caches = append(dst.caches, cache.Snapshot{})
	}
	for i, c := range m.Caches {
		c.SaveState(&dst.caches[i])
	}
	for len(dst.modules) < len(m.Modules) {
		dst.modules = append(dst.modules, bdm.ModuleState{})
	}
	for i, md := range m.Modules {
		md.SaveState(&dst.modules[i])
	}
	dst.policy = m.policy.SavePolicy(dst.policy)
	return dst
}

// Restore rewinds the machine and its policy to a previous capture. The
// scheduler is not part of the state — reinstall it with SetScheduler
// before resuming.
//
//bulklint:captures restore Snapshot Machine
func (m *Machine[R]) Restore(src *Snapshot) {
	m.Mem.CopyFrom(&src.mem)
	m.Engine.LoadState(&src.engine)
	m.Bus = src.bus
	for i, c := range m.Caches {
		c.LoadState(&src.caches[i])
	}
	for i, md := range m.Modules {
		md.LoadState(&src.modules[i])
	}
	m.policy.LoadPolicy(src.policy)
}
