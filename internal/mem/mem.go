// Package mem provides the committed-memory image and the per-thread
// overflow areas of the simulated machine.
//
// Memory is word-addressed and sparse: the workloads touch scattered
// regions of a large address space. It represents *committed* state only —
// speculative values live in the runtimes' write buffers until commit, so
// squashing a thread never has to undo anything here.
//
// Both structures are backed by the deterministic open-addressed table of
// internal/flatmap rather than Go's built-in map: memory reads/writes and
// overflow traffic are the simulator's hottest operations, and the flat
// layout removes the per-access allocation and pointer-chasing of the
// runtime map while keeping iteration reproducible.
//
// The overflow area (Section 6.2.2 of the paper) is where dirty speculative
// lines evicted from a thread's cache are parked. In conventional lazy
// schemes the overflowed addresses must be consulted on every
// disambiguation; in Bulk they are consulted only to deallocate after a
// squash or when the thread misses on a line it evicted — the signatures
// remain the sole record used for disambiguation. Cache lines carry no
// values (a runtime resolves a read from its write buffers, then this
// memory), so the area records which lines are parked, not their words.
// The access counters here feed the "Overflow Accesses Bulk/Lazy (%)"
// column of Table 7.
package mem

import "bulk/internal/flatmap"

// Word is a memory word value.
type Word uint64

// Memory is a sparse word-addressed committed memory image.
type Memory struct {
	words flatmap.Map[Word]
}

// NewMemory returns an empty (all-zero) memory.
func NewMemory() *Memory {
	return &Memory{}
}

// Read returns the committed value at word address a (zero if never written).
//
//bulklint:noalloc
func (m *Memory) Read(a uint64) Word {
	v, _ := m.words.Get(a)
	return v
}

// Write stores a committed value at word address a.
//
//bulklint:noalloc
func (m *Memory) Write(a uint64, v Word) {
	if v == 0 {
		// Keep the image sparse; zero is the default.
		m.words.Delete(a)
		return
	}
	m.words.Put(a, v)
}

// Len returns the number of non-zero words.
func (m *Memory) Len() int { return m.words.Len() }

// Reset empties the memory back to all-zero, keeping the table's
// capacity: a pooled machine returns to its just-built image without
// regrowing it.
//
//bulklint:noalloc
func (m *Memory) Reset() { m.words.Reset() }

// AppendSortedAddrs appends the non-zero word addresses to dst in ascending
// order and returns the extended slice; pair with Read to walk the image in
// address order without materializing a built-in map (the outcome
// fingerprint path does this once per judged schedule).
//
//bulklint:noalloc
func (m *Memory) AppendSortedAddrs(dst []uint64) []uint64 {
	return m.words.SortedKeys(dst)
}

// Equal reports whether two memories hold identical contents.
func (m *Memory) Equal(other *Memory) bool {
	if m.words.Len() != other.words.Len() {
		return false
	}
	eq := true
	m.words.Range(func(a uint64, v Word) bool {
		if ov, ok := other.words.Get(a); !ok || ov != v {
			eq = false
			return false
		}
		return true
	})
	return eq
}

// Diff returns up to max word addresses at which the two memories differ,
// for test failure messages.
func (m *Memory) Diff(other *Memory, max int) []uint64 {
	var out []uint64
	for _, a := range m.words.SortedKeys(nil) {
		if other.Read(a) != m.Read(a) {
			out = append(out, a)
			if len(out) >= max {
				return out
			}
		}
	}
	for _, a := range other.words.SortedKeys(nil) {
		if !m.words.Has(a) { // present in both: the first loop compared it
			out = append(out, a)
			if len(out) >= max {
				return out
			}
		}
	}
	return out
}

// OverflowStats counts overflow-area traffic.
type OverflowStats struct {
	// Spills: dirty speculative lines moved into the area on eviction.
	Spills uint64
	// Fetches: reads that had to be served from the area (the thread
	// missed in its cache on an address it had itself overflowed).
	Fetches uint64
	// DisambiguationAccesses: accesses made to the area while
	// disambiguating a remote commit or remote write. Bulk never does
	// this; conventional Lazy does it whenever the area is non-empty.
	DisambiguationAccesses uint64
	// Deallocs: times the whole area was discarded (commit or squash).
	Deallocs uint64
}

// OverflowArea holds the addresses of the speculative dirty lines a thread
// evicted from its cache.
type OverflowArea struct {
	lines flatmap.Set
	stats OverflowStats
}

// NewOverflowArea returns an empty overflow area.
func NewOverflowArea() *OverflowArea {
	return &OverflowArea{}
}

// Empty reports whether the area holds no lines.
func (o *OverflowArea) Empty() bool { return o.lines.Len() == 0 }

// Stats returns a copy of the access counters.
func (o *OverflowArea) Stats() OverflowStats { return o.stats }

// Spill records the eviction of a dirty speculative line into the area.
func (o *OverflowArea) Spill(line uint64) {
	o.stats.Spills++
	o.lines.Add(line)
}

// Fetch looks a line up on behalf of the owning thread (a cache miss whose
// address passed the W-signature membership filter) and reports whether
// the line is present.
//
//bulklint:noalloc
func (o *OverflowArea) Fetch(line uint64) bool {
	o.stats.Fetches++
	return o.lines.Has(line)
}

// Contains reports presence without charging a Fetch.
func (o *OverflowArea) Contains(line uint64) bool {
	return o.lines.Has(line)
}

// DisambiguationScan models a conventional scheme walking the area to
// disambiguate remote traffic. It charges one access and reports whether
// the given line is present. Bulk never calls this.
//
//bulklint:noalloc
func (o *OverflowArea) DisambiguationScan(line uint64) bool {
	o.stats.DisambiguationAccesses++
	return o.lines.Has(line)
}

// Reset returns the area to its just-built state: no lines, zero
// counters, the line table's capacity kept.
//
//bulklint:noalloc
func (o *OverflowArea) Reset() {
	o.lines.Reset()
	o.stats = OverflowStats{}
}

// Dealloc discards the area contents (after the owning thread commits or is
// squashed).
func (o *OverflowArea) Dealloc() {
	if o.lines.Len() > 0 {
		o.stats.Deallocs++
	}
	o.lines.Reset()
}
