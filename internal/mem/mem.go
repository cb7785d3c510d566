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
// Beside the word table, Memory keeps a line index: one entry per line
// holding a non-zero word, with a bitmask of those words. A cache fill
// reads a whole line through ReadLine, which probes the index once and the
// word table once per non-zero word instead of once per word. Committed
// images are sparse at line granularity too (about one non-zero word per
// touched line in the TM workloads), so the index stores masks rather than
// whole lines.
//
// The overflow area (Section 6.2.2 of the paper) is where dirty speculative
// lines evicted from a thread's cache are parked. In conventional lazy
// schemes the overflowed addresses must be consulted on every
// disambiguation; in Bulk they are consulted only to deallocate after a
// squash or to fetch data the thread itself evicted — the signatures remain
// the sole record used for disambiguation. The access counters here feed
// the "Overflow Accesses Bulk/Lazy (%)" column of Table 7.
package mem

import (
	"math/bits"

	"bulk/internal/flatmap"
)

// Word is a memory word value.
type Word uint64

// WordsPerLine is the number of words in a cache line: the granularity of
// the line index and of ReadLine. Word a lives in line a/WordsPerLine.
const WordsPerLine = 16

// Memory is a sparse word-addressed committed memory image.
type Memory struct {
	words flatmap.Map[Word]
	// lines maps a line address to the mask of its non-zero words (bit w
	// set iff word line*WordsPerLine+w is in words). Write keeps it
	// exact: a line is present iff it has a non-zero word.
	lines flatmap.Map[uint16]
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
	line, bit := a/WordsPerLine, uint16(1)<<(a%WordsPerLine)
	mask, _ := m.lines.Get(line)
	if v == 0 {
		// Keep the image sparse; zero is the default.
		if mask&bit == 0 {
			return
		}
		m.words.Delete(a)
		if mask &^= bit; mask == 0 {
			m.lines.Delete(line)
		} else {
			m.lines.Put(line, mask)
		}
		return
	}
	m.words.Put(a, v)
	if mask&bit == 0 {
		m.lines.Put(line, mask|bit)
	}
}

// ReadLine copies the committed words of line (word addresses
// line*WordsPerLine onward) into dst[:WordsPerLine], zeros included. It
// costs one index probe plus one word probe per non-zero word.
//
//bulklint:noalloc
func (m *Memory) ReadLine(line uint64, dst []uint64) {
	dst = dst[:WordsPerLine]
	clear(dst)
	mask, _ := m.lines.Get(line)
	base := line * WordsPerLine
	for ; mask != 0; mask &= mask - 1 {
		w := bits.TrailingZeros16(mask)
		v, _ := m.words.Get(base + uint64(w))
		dst[w] = uint64(v)
	}
}

// Len returns the number of non-zero words.
func (m *Memory) Len() int { return m.words.Len() }

// Reset empties the memory back to all-zero, keeping both tables'
// capacity: a pooled machine returns to its just-built image without
// regrowing them.
//
//bulklint:noalloc
func (m *Memory) Reset() {
	m.words.Reset()
	m.lines.Reset()
}

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

// ovLine is one overflowed line: a validity bitmask (bit w set when word w
// holds a spilled value) plus the word values. words may be shorter than
// the line when only low words were spilled.
type ovLine struct {
	mask  uint64
	words []Word
}

// OverflowArea holds the speculative dirty lines a thread evicted from its
// cache: line addresses plus the per-word values at eviction time.
type OverflowArea struct {
	lines flatmap.Map[ovLine]
	stats OverflowStats
}

// NewOverflowArea returns an empty overflow area.
func NewOverflowArea() *OverflowArea {
	return &OverflowArea{}
}

// Empty reports whether the area holds no lines.
func (o *OverflowArea) Empty() bool { return o.lines.Len() == 0 }

// Len returns the number of overflowed lines.
func (o *OverflowArea) Len() int { return o.lines.Len() }

// Stats returns a copy of the access counters.
func (o *OverflowArea) Stats() OverflowStats { return o.stats }

// Spill records the eviction of a dirty speculative line into the area.
// mask marks which word-in-line offsets of words carry spilled values
// (bit w set ⇒ words[w] valid); spilling into an already-present line
// merges word-wise, newer values winning. words is copied — the caller may
// reuse its buffer.
func (o *OverflowArea) Spill(line uint64, mask uint64, words []Word) {
	o.stats.Spills++
	cur, ok := o.lines.Get(line)
	if !ok {
		cur = ovLine{}
	}
	if need := len(words); need > len(cur.words) {
		grown := make([]Word, need)
		copy(grown, cur.words)
		cur.words = grown
	}
	for w := range words {
		if mask&(1<<uint(w)) != 0 {
			cur.words[w] = words[w]
		}
	}
	cur.mask |= mask
	o.lines.Put(line, cur)
}

// Fetch looks a line up on behalf of the owning thread (a cache miss whose
// address passed the W-signature membership filter). Returns the validity
// mask, the stored words (valid only where the mask is set; do not mutate),
// and whether the line was present.
//
//bulklint:noalloc
func (o *OverflowArea) Fetch(line uint64) (uint64, []Word, bool) {
	o.stats.Fetches++
	l, ok := o.lines.Get(line)
	return l.mask, l.words, ok
}

// Contains reports presence without charging a Fetch (used by tests).
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

// Lines returns the overflowed line addresses in ascending order.
func (o *OverflowArea) Lines() []uint64 {
	return o.lines.SortedKeys(nil)
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
