// Package cache models a set-associative, write-back L1 data cache.
//
// Deliberately, the cache has no notion of speculation: no Speculative bit
// per line, no per-word access bits, no version IDs in the tags. That is the
// central simplification the Bulk paper claims (Section 4.5: "we keep the
// cache unmodified relative to a non-speculative system"); everything
// speculative is tracked outside the cache, in the Bulk Disambiguation
// Module's signatures and cache-set bitmask registers.
//
// A way's line address lives in a tag array apart from its state and data,
// as in hardware: a tag match compares one set's contiguous tags, and
// signature expansion reads a set's line addresses from them (Figure 4).
package cache

import (
	"fmt"
	"math/bits"
)

// LineAddr is a cache-line-granularity address.
type LineAddr uint64

// State is the coherence-visible state of a cache line.
type State uint8

const (
	// Invalid: the way holds no line.
	Invalid State = iota
	// Clean: present, consistent with memory.
	Clean
	// Dirty: present, modified relative to memory. Whether a dirty line is
	// speculative is not recorded here — the BDM knows via δ(W) bitmasks.
	Dirty
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "Invalid"
	case Clean:
		return "Clean"
	case Dirty:
		return "Dirty"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Line is one cache way's content. Callers get pointers into the cache's
// backing array and may read fields; state changes should go through the
// cache methods so statistics stay consistent. A way's address lives in
// the cache's tag array, not here. A line carries no data: the runtimes
// resolve every read from their write buffers and committed memory, and
// the cache serves timing and coherence state only.
type Line struct {
	State State
	lru   uint64
}

// Evicted describes the line an insertion displaced. State is Invalid when
// the insertion displaced nothing.
type Evicted struct {
	Addr  LineAddr
	State State
}

// Stats counts cache events. All counters are cumulative.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	DirtyEvicts uint64
	Invals      uint64
}

// Cache is a set-associative cache. Not safe for concurrent use; the
// simulator serializes accesses.
//
// The tag array is the only home of a way's address; an Invalid way holds
// noTag.
//
// The cache maintains per-set occupancy summaries incrementally: a
// valid/dirty line count per set and a bit-per-set any-valid/any-dirty
// mask. Bulk operations (signature expansion, bulk invalidation) intersect
// δ(W) with these masks and walk only the surviving sets, so a mostly-empty
// or mostly-clean cache costs almost nothing to disambiguate against. The
// masks share the []uint64 layout of sig.SetMask.
type Cache struct {
	// The geometry, fixed at construction.
	sets, ways, lineBytes, indexBits int

	tags  []LineAddr // sets*ways, row-major by set; noTag while Invalid
	lines []Line     // the ways' contents, laid out as tags
	clock uint64
	stats Stats

	validCnt  []uint16 // valid lines per set
	dirtyCnt  []uint16 // dirty lines per set
	validMask []uint64 // bit s set iff validCnt[s] > 0
	dirtyMask []uint64 // bit s set iff dirtyCnt[s] > 0
}

// New builds a cache of sizeBytes bytes, with the given associativity and
// line size. sizeBytes/(ways*lineBytes) must be a power of two.
func New(sizeBytes, ways, lineBytes int) (*Cache, error) {
	if sizeBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		return nil, fmt.Errorf("cache: invalid geometry %d/%d/%d", sizeBytes, ways, lineBytes)
	}
	if sizeBytes%(ways*lineBytes) != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible by ways*lineBytes", sizeBytes)
	}
	sets := sizeBytes / (ways * lineBytes)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: %d sets is not a power of two", sets)
	}
	c := &Cache{
		sets:      sets,
		ways:      ways,
		lineBytes: lineBytes,
		indexBits: bits.TrailingZeros(uint(sets)),
		tags:      make([]LineAddr, sets*ways),
		lines:     make([]Line, sets*ways),
		validCnt:  make([]uint16, sets),
		dirtyCnt:  make([]uint16, sets),
		validMask: make([]uint64, (sets+63)/64),
		dirtyMask: make([]uint64, (sets+63)/64),
	}
	for i := range c.tags {
		c.tags[i] = noTag
	}
	return c, nil
}

// noTag is the tag of an Invalid way. No line address reaches it: line
// addresses are word addresses divided by the words per line.
const noTag = ^LineAddr(0)

// MustNew is New that panics on error; for static configuration tables.
func MustNew(sizeBytes, ways, lineBytes int) *Cache {
	c, err := New(sizeBytes, ways, lineBytes)
	if err != nil {
		panic(err)
	}
	return c
}

// NumSets returns the number of cache sets.
func (c *Cache) NumSets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineBytes returns the line size in bytes.
func (c *Cache) LineBytes() int { return c.lineBytes }

// IndexBits returns log2(NumSets): how many line-address bits form the set
// index.
func (c *Cache) IndexBits() int { return c.indexBits }

// SetIndex returns the set an address maps to.
func (c *Cache) SetIndex(a LineAddr) int { return int(a) & (c.sets - 1) }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// find returns the index in tags and lines of the way holding a, or -1:
// one match over the ways' contiguous tags.
//
//bulklint:noalloc
func (c *Cache) find(a LineAddr) int {
	base := c.SetIndex(a) * c.ways
	for i, t := range c.tags[base : base+c.ways] {
		if t == a {
			return base + i
		}
	}
	return -1
}

// Occupancy bookkeeping. Counts drive the masks: a set's mask bit flips
// exactly on the 0↔1 count transitions, so every state change costs O(1).

func (c *Cache) addValid(set int) {
	c.validCnt[set]++
	c.validMask[set>>6] |= 1 << (set & 63)
}

func (c *Cache) subValid(set int) {
	c.validCnt[set]--
	if c.validCnt[set] == 0 {
		c.validMask[set>>6] &^= 1 << (set & 63)
	}
}

func (c *Cache) addDirty(set int) {
	c.dirtyCnt[set]++
	c.dirtyMask[set>>6] |= 1 << (set & 63)
}

func (c *Cache) subDirty(set int) {
	c.dirtyCnt[set]--
	if c.dirtyCnt[set] == 0 {
		c.dirtyMask[set>>6] &^= 1 << (set & 63)
	}
}

// Lookup returns the line holding address a, or nil. It does not touch LRU
// state or statistics; use Access for the full load/store path.
//
//bulklint:noalloc
func (c *Cache) Lookup(a LineAddr) *Line {
	if i := c.find(a); i >= 0 {
		return &c.lines[i]
	}
	return nil
}

// Contains reports whether address a is present (valid) in the cache.
//
//bulklint:noalloc
func (c *Cache) Contains(a LineAddr) bool { return c.Lookup(a) != nil }

// Access performs the tag-match part of a load or store: on a hit it
// refreshes LRU and returns the line; on a miss it returns nil. The caller
// decides what to insert on a miss (fill state depends on the request type).
//
//bulklint:noalloc
func (c *Cache) Access(a LineAddr) *Line {
	l := c.Lookup(a)
	if l == nil {
		c.stats.Misses++
		return nil
	}
	c.stats.Hits++
	c.clock++
	l.lru = c.clock
	return l
}

// Insert places address a in the cache in the given state, evicting the LRU
// way if the set is full. The returned Evicted tells the caller what was
// displaced (State Invalid if nothing was) — the caller owns writing back
// dirty victims.
//
//bulklint:noalloc
func (c *Cache) Insert(a LineAddr, st State) (*Line, Evicted) {
	if st == Invalid {
		panic("cache: cannot insert a line in Invalid state") //bulklint:invariant callers insert only Clean or Dirty lines
	}
	set := c.SetIndex(a)
	if l := c.Lookup(a); l != nil {
		// Already present: just update state (an upgrade) and LRU.
		if st == Dirty && l.State != Dirty {
			l.State = Dirty
			c.addDirty(set)
		}
		c.clock++
		l.lru = c.clock
		return l, Evicted{}
	}
	base := set * c.ways
	tags, ws := c.tags[base:base+c.ways], c.lines[base:base+c.ways]
	victim := -1
	for i, t := range tags {
		if t == noTag {
			victim = i
			break
		}
	}
	var ev Evicted
	if victim < 0 {
		victim = 0
		for i := 1; i < len(ws); i++ {
			if ws[i].lru < ws[victim].lru {
				victim = i
			}
		}
		ev = Evicted{Addr: tags[victim], State: ws[victim].State}
		c.stats.Evictions++
		c.subValid(set)
		if ws[victim].State == Dirty {
			c.stats.DirtyEvicts++
			c.subDirty(set)
		}
	}
	c.clock++
	tags[victim] = a
	ws[victim] = Line{State: st, lru: c.clock}
	c.addValid(set)
	if st == Dirty {
		c.addDirty(set)
	}
	return &ws[victim], ev
}

// Invalidate removes address a from the cache if present. Returns the state
// the line had (Invalid if it was not present).
//
//bulklint:noalloc
func (c *Cache) Invalidate(a LineAddr) State {
	i := c.find(a)
	if i < 0 {
		return Invalid
	}
	st := c.lines[i].State
	c.lines[i].State = Invalid
	c.tags[i] = noTag
	c.stats.Invals++
	set := c.SetIndex(a)
	c.subValid(set)
	if st == Dirty {
		c.subDirty(set)
	}
	return st
}

// MarkClean downgrades a dirty line to clean (after a writeback). No-op if
// the line is absent.
//
//bulklint:noalloc
func (c *Cache) MarkClean(a LineAddr) {
	if l := c.Lookup(a); l != nil && l.State == Dirty {
		l.State = Clean
		c.subDirty(c.SetIndex(a))
	}
}

// MarkDirty upgrades the resident line a to Dirty. Line state transitions
// must go through the cache (not `l.State = Dirty` on a returned pointer)
// so the per-set occupancy summaries stay consistent.
//
//bulklint:noalloc
func (c *Cache) MarkDirty(a LineAddr) {
	i := c.find(a)
	if i < 0 {
		panic("cache: MarkDirty on an absent line") //bulklint:invariant callers mark lines they just accessed or inserted
	}
	if c.lines[i].State != Dirty {
		c.lines[i].State = Dirty
		c.addDirty(c.SetIndex(a))
	}
}

// LinesInSet appends the addresses of the valid lines of set i to dst,
// read from the tags. This is the cache-side read of signature expansion
// (Figure 4): given a set index from δ, read out all valid line addresses
// in the set.
//
//bulklint:noalloc
func (c *Cache) LinesInSet(i int, dst []LineAddr) []LineAddr {
	if c.validCnt[i] == 0 {
		return dst
	}
	for _, t := range c.tags[i*c.ways : (i+1)*c.ways] {
		if t != noTag {
			dst = append(dst, t) //bulklint:allow noalloc amortized growth; callers pass a warmed scratch buffer
		}
	}
	return dst
}

// DirtyInSet reports whether set i holds any dirty line.
//
//bulklint:noalloc
func (c *Cache) DirtyInSet(i int) bool { return c.dirtyCnt[i] > 0 }

// DirtyLinesInSet appends the addresses of the dirty lines of set i to dst.
//
//bulklint:noalloc
func (c *Cache) DirtyLinesInSet(i int, dst []LineAddr) []LineAddr {
	if c.dirtyCnt[i] == 0 {
		return dst
	}
	for j := i * c.ways; j < (i+1)*c.ways; j++ {
		if c.lines[j].State == Dirty {
			dst = append(dst, c.tags[j]) //bulklint:allow noalloc amortized growth; callers pass a warmed scratch buffer
		}
	}
	return dst
}

// AndValidSets intersects m (a bit-per-set mask in sig.SetMask layout) with
// the cache's any-valid occupancy mask, clearing bits of sets that hold no
// valid line. m must cover NumSets bits.
//
//bulklint:noalloc
func (c *Cache) AndValidSets(m []uint64) {
	for i := range c.validMask {
		m[i] &= c.validMask[i]
	}
}

// AndDirtySets intersects m with the any-dirty occupancy mask, clearing
// bits of sets that hold no dirty line.
//
//bulklint:noalloc
func (c *Cache) AndDirtySets(m []uint64) {
	for i := range c.dirtyMask {
		m[i] &= c.dirtyMask[i]
	}
}

// Reset returns the cache to its just-built state: every way Invalid with
// tag noTag, zero occupancy, counters and LRU clock. It walks only the
// occupied sets. An Invalid way's LRU stamp is never read — victim
// selection takes an Invalid way before it compares stamps, and Insert
// rewrites the whole line — so it keeps its stale value.
//
//bulklint:noalloc
func (c *Cache) Reset() {
	for w, m := range c.validMask {
		for ; m != 0; m &= m - 1 {
			base := (w<<6 + bits.TrailingZeros64(m)) * c.ways
			for i := base; i < base+c.ways; i++ {
				c.tags[i] = noTag
				c.lines[i].State = Invalid
			}
		}
	}
	clear(c.validCnt)
	clear(c.dirtyCnt)
	clear(c.validMask)
	clear(c.dirtyMask)
	c.clock = 0
	c.stats = Stats{}
}
