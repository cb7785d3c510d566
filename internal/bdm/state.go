// Snapshot support: the machine snapshot (core.Snapshot) captures and
// restores whole-system states — the model checker rewinds each worker's
// system to its initial state before every schedule — and the module's
// version table is part of that state. SaveState/LoadState copy the live
// versions into flat, index-addressed storage so a snapshot never aliases
// the module's own signatures, and the runtime snapshots can refer to
// versions by table index (IndexOfVersion/VersionAt) instead of by
// pointer: LoadState recycles version objects, so a pointer taken before
// a restore may name another slot after it.
package bdm

import "bulk/internal/sig"

// VersionState is the deep-copied state of one version slot.
type VersionState struct {
	Owner    int
	R, W     *sig.Signature
	Wsh      *sig.Signature
	HasWsh   bool
	Overflow bool
	mask     sig.SetMask
}

// ModuleState is a deep copy of a module's mutable state. The zero value
// is an empty snapshot; SaveState grows it on first use and reuses its
// buffers on every later capture into the same ModuleState.
type ModuleState struct {
	versions []VersionState
	nv       int
	run      int // index into versions, -1 when no version is running
	stats    Stats
}

// SaveState deep-copies the module's mutable state — the live version
// table, the running-version index, and the counters — into st, reusing
// st's signature and mask storage across captures.
func (m *Module) SaveState(st *ModuleState) {
	st.stats = m.stats
	st.nv = len(m.versions)
	for len(st.versions) < st.nv {
		st.versions = append(st.versions, VersionState{
			R:    m.cfg.Sig.NewSignature(),
			W:    m.cfg.Sig.NewSignature(),
			mask: sig.NewSetMask(m.cache.NumSets()),
		})
	}
	st.run = -1
	for i, v := range m.versions {
		sv := &st.versions[i]
		sv.Owner = v.Owner
		sv.R.CopyFrom(v.R)
		sv.W.CopyFrom(v.W)
		sv.HasWsh = v.Wsh != nil
		if sv.HasWsh {
			if sv.Wsh == nil {
				sv.Wsh = m.cfg.Sig.NewSignature()
			}
			sv.Wsh.CopyFrom(v.Wsh)
		}
		sv.Overflow = v.Overflow
		sv.mask.CopyFrom(v.mask)
		if v == m.run {
			st.run = i
		}
	}
}

// LoadState restores the module to the captured state. Version objects are
// recycled from the current table and the spare pool, so a restore in the
// snapshot steady state allocates nothing; external references into the
// table must be re-resolved by index (VersionAt) after the call.
func (m *Module) LoadState(st *ModuleState) {
	for len(m.versions) > st.nv {
		last := m.versions[len(m.versions)-1]
		m.versions = m.versions[:len(m.versions)-1]
		m.spare = append(m.spare, last)
	}
	for len(m.versions) < st.nv {
		m.versions = append(m.versions, m.takeVersion(0))
	}
	m.run = nil
	for i := range m.versions {
		sv := &st.versions[i]
		v := m.versions[i]
		v.Owner = sv.Owner
		v.R.CopyFrom(sv.R)
		v.W.CopyFrom(sv.W)
		if sv.HasWsh {
			if v.Wsh == nil {
				v.Wsh = m.cfg.Sig.NewSignature()
			}
			v.Wsh.CopyFrom(sv.Wsh)
		} else {
			v.Wsh = nil
		}
		v.Overflow = sv.Overflow
		v.mask.CopyFrom(sv.mask)
		v.freed = false
		if i == st.run {
			m.run = v
		}
	}
	m.stats = st.stats
	m.recomputePreMask()
}

// IndexOfVersion returns v's position in the live version table, or -1.
// Snapshots store this index instead of the pointer.
func (m *Module) IndexOfVersion(v *Version) int {
	for i, x := range m.versions {
		if x == v {
			return i
		}
	}
	return -1
}

// VersionAt returns the version at table index i (the inverse of
// IndexOfVersion after a LoadState).
func (m *Module) VersionAt(i int) *Version {
	return m.versions[i]
}
