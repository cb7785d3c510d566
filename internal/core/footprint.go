package core

import (
	"bulk/internal/bdm"
	"bulk/internal/cache"
	"bulk/internal/flatmap"
	"bulk/internal/mem"
)

// Footprint is the exact form of one speculative unit's footprint — a TM
// section, a TLS task, a checkpointed episode: its write buffer and its
// exact read and write sets. Eager, Lazy and Exact disambiguate with it,
// and Bulk's false positives are counted against it. The signature form
// lives in the unit's BDM Version. Policies add to the sets at their
// access sites, so the hot path pays no call.
type Footprint struct {
	// Buf maps each written word to its buffered value; its keys are the
	// exact write set in words.
	Buf flatmap.Map[uint64]
	// ReadW is the exact read set in words.
	ReadW flatmap.Set
	// ReadL and WriteL are the exact read and write sets in lines.
	ReadL  flatmap.Set
	WriteL flatmap.Set
	// Version is the unit's BDM version; nil without signatures.
	Version *bdm.Version
}

// Reset empties the buffer and the sets, keeping their capacity. The
// version is the policy's to allocate and free, so Reset leaves it.
func (f *Footprint) Reset() {
	f.Buf.Reset()
	f.ReadW.Reset()
	f.ReadL.Reset()
	f.WriteL.Reset()
}

// The three exact bulk operations below are the twins of the BDM's:
// where a Bulk policy expands a signature into the cache sets it may
// touch, an exact policy walks the lines of a footprint's set. Each walks
// in address order.

// Apply writes f's buffered values to committed memory: a commit's
// write-buffer drain.
func (m *Machine[R]) Apply(f *Footprint) {
	m.keys = f.Buf.SortedKeys(m.keys[:0])
	for _, a := range m.keys {
		v, _ := f.Buf.Get(a)
		m.Mem.Write(a, mem.Word(v))
	}
}

// Drop invalidates, in processor p's L1, the lines of lines that are held
// in state st; lines in another state stay. It is the exact twin of
// bdm.Module.SquashInvalidate (a squash drops the dirty lines of its write
// set and, under TLS, the clean lines of its read set) and of
// SpawnInvalidate (a child drops clean copies of its parent's writes).
func (m *Machine[R]) Drop(p int, lines *flatmap.Set, st cache.State) {
	c := m.Caches[p]
	m.keys = lines.SortedKeys(m.keys[:0])
	for _, l := range m.keys {
		if cl := c.Lookup(cache.LineAddr(l)); cl != nil && cl.State == st {
			c.Invalidate(cache.LineAddr(l))
		}
	}
}

// InvalidateLines invalidates processor q's copies of lines, in whatever
// state: a receiver dropping its stale copies of a committer's written
// lines, the exact twin of bdm.Module.CommitInvalidate.
func (m *Machine[R]) InvalidateLines(q int, lines *flatmap.Set) {
	c := m.Caches[q]
	m.keys = lines.SortedKeys(m.keys[:0])
	for _, l := range m.keys {
		c.Invalidate(cache.LineAddr(l))
	}
}
