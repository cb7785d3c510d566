package core

import (
	"math/bits"
	"slices"

	"bulk/internal/bdm"
	"bulk/internal/cache"
	"bulk/internal/flatmap"
	"bulk/internal/mem"
)

// Footprint is the exact form of one speculative unit's footprint — a TM
// section, a TLS task, a checkpointed episode: its write buffer and its
// exact read and write sets. Eager, Lazy and Exact disambiguate with it,
// and Bulk's false positives are counted against it. The signature form
// lives in the unit's BDM Version.
//
// It is one table keyed by line, the line-and-word-mask shape of the
// paper's fine-grain disambiguation (Section 4.4): each touched line's
// entry holds the masks of the words the unit read and wrote and, once the
// line is written, the index of a block of WordsPerLine buffered values. A
// read or a write is one probe; an exact word or line test is one probe
// and a mask test. Blocks are taken only for written lines, so a section
// that reads many lines and writes few keeps a small table.
type Footprint struct {
	lines flatmap.Map[lineEntry]
	// words holds the buffered values, a block of WordsPerLine words per
	// written line, taken at the line's first write; written lists those
	// lines in block order, so a walk of the write set skips read lines.
	words, written []uint64
	// nR and nW count the distinct words read and written.
	nR, nW int
	// Version is the unit's BDM version; nil without signatures.
	Version *bdm.Version
}

// Masks are the words of one line a footprint's unit read (R), wrote (W)
// and wrote after spawning a child (Sh ⊆ W, the exact twin of the BDM's
// shadow signature Wsh); bit w stands for word w of the line.
type Masks struct {
	R, W, Sh uint16
}

// lineEntry is one line of a footprint: its masks and, while W is
// non-zero, the index of its block of buffered values.
type lineEntry struct {
	Masks
	blk uint32
}

// WordBit is word's bit in the masks of its line.
//
//bulklint:noalloc
func WordBit(word uint64) uint16 { return 1 << (word % WordsPerLine) }

// value is where f buffers word, of the written line e.
func (f *Footprint) value(e *lineEntry, word uint64) *uint64 {
	return &f.words[int(e.blk)*WordsPerLine+int(word%WordsPerLine)]
}

// Read records a read of word and returns the value f buffers for it, if
// the unit wrote it: the read-set update and the own-buffer lookup in one
// probe.
//
//bulklint:noalloc
func (f *Footprint) Read(word uint64) (v uint64, buffered bool) {
	e := f.lines.Upsert(LineOf(word))
	b := WordBit(word)
	if e.R&b == 0 {
		e.R |= b
		f.nR++
	}
	if e.W&b == 0 {
		return 0, false
	}
	return *f.value(e, word), true
}

// Write buffers v as word's value.
//
//bulklint:noalloc
func (f *Footprint) Write(word, v uint64) { f.write(word, v) }

// WriteShadow is Write by a unit that has spawned its child: the word also
// joins the shadow mask, Partial Overlap's post-spawn write set.
//
//bulklint:noalloc
func (f *Footprint) WriteShadow(word, v uint64) { f.write(word, v).Sh |= WordBit(word) }

func (f *Footprint) write(word, v uint64) *lineEntry {
	e := f.lines.Upsert(LineOf(word))
	b := WordBit(word)
	if e.W == 0 {
		e.blk = uint32(len(f.written))
		f.written = append(f.written, LineOf(word))                //bulklint:allow noalloc amortized growth; footprints are recycled with their blocks
		f.words = append(f.words, make([]uint64, WordsPerLine)...) //bulklint:allow noalloc amortized growth; footprints are recycled with their blocks
	}
	if e.W&b == 0 {
		e.W |= b
		f.nW++
	}
	*f.value(e, word) = v
	return e
}

// Value returns the value f buffers for word, if the unit wrote it.
//
//bulklint:noalloc
func (f *Footprint) Value(word uint64) (uint64, bool) {
	e := f.lines.Lookup(LineOf(word))
	if e == nil || e.W&WordBit(word) == 0 {
		return 0, false
	}
	return *f.value(e, word), true
}

// Line returns the masks of line, zero for a line the unit never touched.
//
//bulklint:noalloc
func (f *Footprint) Line(line uint64) Masks {
	if e := f.lines.Lookup(line); e != nil {
		return e.Masks
	}
	return Masks{}
}

// ReadWords and WrittenWords count the distinct words read and written.
func (f *Footprint) ReadWords() int    { return f.nR }
func (f *Footprint) WrittenWords() int { return f.nW }

// Access selects a footprint's lines by how its unit touched them: Reads
// the lines with a word read, Writes those with a word written.
type Access uint8

const (
	Reads Access = iota
	Writes
)

// Lines counts the lines a selects.
func (f *Footprint) Lines(a Access) int {
	if a == Writes {
		return len(f.written)
	}
	n := 0
	f.lines.Range(func(_ uint64, e lineEntry) bool {
		if e.R != 0 {
			n++
		}
		return true
	})
	return n
}

// SortedLines appends the lines a selects to dst in ascending order and
// returns the extended slice.
func (f *Footprint) SortedLines(dst []uint64, a Access) []uint64 {
	start := len(dst)
	if a == Writes {
		dst = append(dst, f.written...)
	} else {
		f.lines.Range(func(l uint64, e lineEntry) bool {
			if e.R != 0 {
				dst = append(dst, l)
			}
			return true
		})
	}
	slices.Sort(dst[start:])
	return dst
}

// Reset empties the footprint, keeping its table's and its blocks'
// capacity. The version is the policy's to allocate and free, so Reset
// leaves it.
func (f *Footprint) Reset() {
	f.lines.Reset()
	f.words, f.written = f.words[:0], f.written[:0]
	f.nR, f.nW = 0, 0
}

// Merge folds g into f as if g's accesses followed f's: a closed nest's
// commit merges its sections into one footprint.
func (f *Footprint) Merge(g *Footprint) {
	g.lines.Range(func(l uint64, e lineEntry) bool {
		for w := l * WordsPerLine; w < (l+1)*WordsPerLine; w++ {
			b := WordBit(w)
			if e.R&b != 0 {
				f.Read(w)
			}
			if e.W&b != 0 {
				f.write(w, *g.value(&e, w)).Sh |= e.Sh & b
			}
		}
		return true
	})
}

// Overlap is what a committer's written words share with a receiver's
// footprint: the exact dependence set of a commit.
type Overlap struct {
	// Words counts the committer's written words the receiver read or
	// wrote; Read reports whether the receiver read any of them.
	Words int
	Read  bool
	// Lines counts the committer's written lines the receiver touched.
	Lines int
}

// Overlap intersects f's written words, line by line, with a receiver
// whose masks line returns (a footprint's Line, or a nest's join). With
// shadow, only f's post-spawn writes count: Partial Overlap's exemption
// for the first child.
func (f *Footprint) Overlap(line func(uint64) Masks, shadow bool) (o Overlap) {
	for _, l := range f.written {
		e := f.lines.Lookup(l)
		w := e.W
		if shadow {
			w = e.Sh
		}
		if w == 0 {
			continue
		}
		m := line(l)
		if m.R|m.W != 0 {
			o.Lines++
		}
		o.Words += bits.OnesCount16(w & (m.R | m.W))
		o.Read = o.Read || w&m.R != 0
	}
	return o
}

// The three exact bulk operations below are the twins of the BDM's:
// where a Bulk policy expands a signature into the cache sets it may
// touch, an exact policy walks the lines of a footprint. Each walks in
// address order.

// Apply writes f's buffered values to committed memory: a commit's
// write-buffer drain.
func (m *Machine[R]) Apply(f *Footprint) {
	m.keys = f.SortedLines(m.keys[:0], Writes)
	for _, l := range m.keys {
		e := f.lines.Lookup(l)
		base := l * WordsPerLine
		for w := e.W; w != 0; w &= w - 1 {
			a := base + uint64(bits.TrailingZeros16(w))
			m.Mem.Write(a, mem.Word(*f.value(e, a)))
		}
	}
}

// Drop invalidates, in processor p's L1, the lines of f that a selects
// and that are held in state st; lines in another state stay. It is the
// exact twin of bdm.Module.SquashInvalidate (a squash drops the dirty
// lines of its write set and, under TLS, the clean lines of its read set)
// and of SpawnInvalidate (a child drops clean copies of its parent's
// writes).
func (m *Machine[R]) Drop(p int, f *Footprint, a Access, st cache.State) {
	c := m.Caches[p]
	m.keys = f.SortedLines(m.keys[:0], a)
	for _, l := range m.keys {
		if cl := c.Lookup(cache.LineAddr(l)); cl != nil && cl.State == st {
			c.Invalidate(cache.LineAddr(l))
		}
	}
}

// InvalidateLines invalidates processor q's copies of the lines f wrote,
// in whatever state: a receiver dropping its stale copies of a committer's
// written lines, the exact twin of bdm.Module.CommitInvalidate.
func (m *Machine[R]) InvalidateLines(q int, f *Footprint) {
	c := m.Caches[q]
	m.keys = f.SortedLines(m.keys[:0], Writes)
	for _, l := range m.keys {
		c.Invalidate(cache.LineAddr(l))
	}
}
