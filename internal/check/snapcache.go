package check

import (
	"sync"

	"bulk/internal/core"
)

// Fork-point snapshot cache. The best-first explorer's wave structure
// means every wave row of length L shares its first L choices with the
// parent row that spawned it, and the parent's execution passed through
// exactly the machine state the child needs to start from. The cache keyed
// on executed choice sequences turns that sharing into work saved: when a
// parent pauses at its fork point (the first tick boundary with >= L
// decisions taken) it deposits a deep-copy snapshot; each child later
// probes the cache with its own prefix and, on a hit, restores the state
// and resumes mid-run instead of replaying the shared prefix from the
// root.
//
// Correctness does not depend on the cache at all: a schedule's executed
// decision sequence is a pure function of its prefix (misses replay from
// the base state; hits restore a byte-identical capture of the same
// boundary), so hit/miss patterns — which vary with worker timing and the
// memory budget — can change only speed, never a single outcome byte.
// That is the property the snapshot-vs-replay differential tests pin.

// snapEntry is one cached fork point: the first count executed choices
// (the capture's identity), the recorded scheduler steps to reseed a
// resumed ReplayScheduler, and the captured machine state.
//
//bulklint:snapstate
type snapEntry struct {
	key     uint64
	count   int
	choices []byte
	steps   []Step
	state   *core.Snapshot
	size    int64
	refs    int
	// hits counts successful lookups; expected, once set by the explorer's
	// reduce step, is how many child schedules will probe this entry (-1
	// until known). When hits reaches expected and nothing is pinned, the
	// entry retires immediately — recycling its snapshot long before LRU
	// pressure would — since the children were its only possible users.
	hits     int
	expected int
	prev     *snapEntry // LRU list; head = most recently used
	next     *snapEntry
}

// snapCacheStats counts cache traffic for the explorer's reporting.
type snapCacheStats struct {
	Hits, Misses, Inserts, Evictions, Retires uint64
}

// snapCache is a bounded, mutex-guarded LRU of fork-point snapshots shared
// by every worker of one exploration. Entries pin while a worker restores
// from them (refs); eviction skips pinned entries, and evicted states and
// entry shells recycle through spare pools so a steady-state exploration
// allocates no new snapshot storage.
type snapCache struct {
	mu      sync.Mutex
	budget  int64
	total   int64
	entries map[uint64]*snapEntry
	head    *snapEntry
	tail    *snapEntry
	spareSt []*core.Snapshot
	spareEn []*snapEntry
	hashes  []uint64 // lookup scratch, guarded by mu
	stats   snapCacheStats
}

// newSnapCache builds a cache bounded to budget bytes of snapshot state.
func newSnapCache(budget int64) *snapCache {
	return &snapCache{budget: budget, entries: make(map[uint64]*snapEntry)}
}

// lookup finds the longest cached fork point usable by a schedule prefix:
// the entry with the largest count k < len(prefix) whose executed choices
// equal prefix[:k]. (k == len(prefix) cannot match: rows never end in a
// default choice, but every capture's tail choices past its own row are
// defaults.) The returned entry is pinned; the caller must release it.
func (c *snapCache) lookup(prefix []int) *snapEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hashes = c.hashes[:0]
	h := uint64(fnvOffset)
	for _, ch := range prefix {
		c.hashes = append(c.hashes, h) // hashes[k] = hash of prefix[:k]
		h = hashStep(h, ch)
	}
	for k := len(prefix) - 1; k >= 1; k-- {
		e := c.entries[c.hashes[k]]
		if e == nil || e.count != k || !choicesMatch(e.choices, prefix[:k]) {
			continue
		}
		e.refs++
		e.hits++
		c.moveToFront(e)
		c.stats.Hits++
		return e
	}
	c.stats.Misses++
	return nil
}

// release unpins an entry returned by lookup, retiring it if its last
// expected child has now resumed.
func (c *snapCache) release(e *snapEntry) {
	c.mu.Lock()
	e.refs--
	c.maybeRetire(e)
	c.mu.Unlock()
}

// setExpected records how many children will probe the entry. The
// explorer's reduce step calls this once per capture, after the capturing
// run's children have been counted; an entry whose children are all
// accounted for retires on the spot.
func (c *snapCache) setExpected(e *snapEntry, n int) {
	c.mu.Lock()
	e.expected = n
	c.maybeRetire(e)
	c.mu.Unlock()
}

// maybeRetire recycles an entry that is unpinned, still resident, and has
// served every child that will ever probe it. Callers hold c.mu.
func (c *snapCache) maybeRetire(e *snapEntry) {
	if e.refs > 0 || e.expected < 0 || e.hits < e.expected {
		return
	}
	if c.entries[e.key] != e { // already evicted
		return
	}
	c.unlink(e)
	delete(c.entries, e.key)
	c.total -= e.size
	c.spareSt = append(c.spareSt, e.state)
	e.state = nil
	c.spareEn = append(c.spareEn, e)
	c.stats.Retires++
}

// takeSpare returns an evicted snapshot state for reuse, or nil when the
// pool is empty and the caller must allocate a fresh one.
func (c *snapCache) takeSpare() *core.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.spareSt); n > 0 {
		st := c.spareSt[n-1]
		c.spareSt[n-1] = nil
		c.spareSt = c.spareSt[:n-1]
		return st
	}
	return nil
}

// insert deposits a capture taken after count executed decisions of a run
// whose forced prefix was prefix (choices past the prefix are defaults).
// steps are the scheduler's recorded steps at the capture. The state is
// recycled into the spare pool instead when the key is already present or
// the state alone exceeds the budget. Returns the inserted entry (nil on a
// bounce) so the explorer can later tell it how many children to expect.
//
//bulklint:captures copyfrom snapEntry
func (c *snapCache) insert(prefix []int, count int, steps []Step, st *core.Snapshot) *snapEntry {
	size := int64(st.SizeBytes()) + int64(len(steps))*48 + int64(count) + 128
	c.mu.Lock()
	defer c.mu.Unlock()
	key := uint64(fnvOffset)
	for j := 0; j < count; j++ {
		ch := 0
		if j < len(prefix) {
			ch = prefix[j]
		}
		key = hashStep(key, ch)
	}
	if c.entries[key] != nil || size > c.budget {
		c.spareSt = append(c.spareSt, st)
		return nil
	}
	var e *snapEntry
	if n := len(c.spareEn); n > 0 {
		e = c.spareEn[n-1]
		c.spareEn[n-1] = nil
		c.spareEn = c.spareEn[:n-1]
	} else {
		e = &snapEntry{}
	}
	e.key, e.count, e.state, e.size, e.refs = key, count, st, size, 0
	e.hits, e.expected = 0, -1
	e.choices = e.choices[:0]
	for j := 0; j < count; j++ {
		ch := byte(0)
		if j < len(prefix) {
			ch = byte(prefix[j])
		}
		e.choices = append(e.choices, ch)
	}
	e.steps = append(e.steps[:0], steps...)
	c.entries[key] = e
	c.pushFront(e)
	c.total += size
	c.stats.Inserts++
	for c.total > c.budget {
		if !c.evictOne() {
			break // everything left is pinned; transiently over budget
		}
	}
	return e
}

// evictOne drops the least-recently-used unpinned entry, recycling its
// state and shell. Reports whether anything was evicted.
func (c *snapCache) evictOne() bool {
	for e := c.tail; e != nil; e = e.prev {
		if e.refs > 0 {
			continue
		}
		c.unlink(e)
		delete(c.entries, e.key)
		c.total -= e.size
		c.spareSt = append(c.spareSt, e.state)
		e.state = nil
		c.spareEn = append(c.spareEn, e)
		c.stats.Evictions++
		return true
	}
	return false
}

// Stats returns a copy of the traffic counters.
func (c *snapCache) Stats() snapCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *snapCache) pushFront(e *snapEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *snapCache) unlink(e *snapEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *snapCache) moveToFront(e *snapEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// choicesMatch compares an entry's executed choice bytes against a prefix.
//
//bulklint:noalloc
func choicesMatch(choices []byte, prefix []int) bool {
	if len(choices) != len(prefix) {
		return false
	}
	for i, b := range choices {
		if int(b) != prefix[i] {
			return false
		}
	}
	return true
}

// snapCaptureDepth caps the row length that deposits fork-point captures.
// A capture at depth d serves every schedule in the subtree below it, so
// shallow captures have fan-out in the thousands while deep ones serve
// only their immediate children — almost none of which execute before
// typical budgets die — at a full state copy per run. Measured on the
// stock sweeps, capping at 3 keeps ~all of the resume benefit at under
// 3% of the uncapped capture bill.
const snapCaptureDepth = 3
