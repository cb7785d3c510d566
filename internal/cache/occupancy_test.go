package cache

import (
	"testing"

	"bulk/internal/rng"
)

// bruteOccupancy recomputes per-set valid/dirty counts and masks by
// scanning every way, the way the incremental bookkeeping is supposed to
// mirror.
func bruteOccupancy(c *Cache) (validCnt, dirtyCnt []uint16, validMask, dirtyMask []uint64) {
	validCnt = make([]uint16, c.sets)
	dirtyCnt = make([]uint16, c.sets)
	validMask = make([]uint64, (c.sets+63)/64)
	dirtyMask = make([]uint64, (c.sets+63)/64)
	for i, l := range c.lines {
		s := i / c.ways
		if l.State != Invalid {
			validCnt[s]++
			validMask[s>>6] |= 1 << (s & 63)
		}
		if l.State == Dirty {
			dirtyCnt[s]++
			dirtyMask[s>>6] |= 1 << (s & 63)
		}
	}
	return
}

func checkOccupancy(t *testing.T, c *Cache, when string) {
	t.Helper()
	validCnt, dirtyCnt, validMask, dirtyMask := bruteOccupancy(c)
	for s := 0; s < c.sets; s++ {
		if c.validCnt[s] != validCnt[s] {
			t.Fatalf("%s: set %d validCnt = %d, brute force says %d", when, s, c.validCnt[s], validCnt[s])
		}
		if c.dirtyCnt[s] != dirtyCnt[s] {
			t.Fatalf("%s: set %d dirtyCnt = %d, brute force says %d", when, s, c.dirtyCnt[s], dirtyCnt[s])
		}
	}
	for i := range validMask {
		if c.validMask[i] != validMask[i] {
			t.Fatalf("%s: validMask[%d] = %#x, brute force says %#x", when, i, c.validMask[i], validMask[i])
		}
		if c.dirtyMask[i] != dirtyMask[i] {
			t.Fatalf("%s: dirtyMask[%d] = %#x, brute force says %#x", when, i, c.dirtyMask[i], dirtyMask[i])
		}
	}
}

// checkTags re-derives the tag array from model, the resident lines and
// their states: each resident line sits in one way of its own set under
// its state, and every other way is Invalid with tag noTag.
func checkTags(t *testing.T, c *Cache, model map[LineAddr]State, step int) {
	t.Helper()
	found := 0
	for i, tag := range c.tags {
		st := c.lines[i].State
		if tag == noTag {
			if st != Invalid {
				t.Fatalf("step %d: way %d has no tag but state %v", step, i, st)
			}
			continue
		}
		if want, ok := model[tag]; !ok || st != want || c.SetIndex(tag) != i/c.ways {
			t.Fatalf("step %d: way %d holds line %d as %v; model says resident=%v as %v in set %d",
				step, i, tag, st, ok, want, c.SetIndex(tag))
		}
		found++
	}
	if found != len(model) {
		t.Fatalf("step %d: tags hold %d lines, model %d", step, found, len(model))
	}
}

// TestOccupancyRandomOps drives randomized insert/invalidate/markclean/
// markdirty/reset sequences against a model of the resident lines. After
// every operation it re-derives the tags from the model, and every 7th it
// checks the incremental occupancy summaries against a per-set scan.
func TestOccupancyRandomOps(t *testing.T) {
	// 128 sets exercises mask words beyond the first; 8 sets exercises a
	// mask smaller than one word.
	for _, geom := range []struct{ size, ways, line int }{
		{32 << 10, 4, 64}, // 128 sets
		{2 << 10, 4, 64},  // 8 sets
	} {
		c := MustNew(geom.size, geom.ways, geom.line)
		model := map[LineAddr]State{}
		r := rng.New(uint64(geom.size))
		addrSpace := uint64(c.NumSets() * c.Ways() * 3) // enough aliasing to force evictions
		for step := 0; step < 4000; step++ {
			a := LineAddr(r.Intn(int(addrSpace)))
			switch {
			case r.Bool(0.45):
				st := Clean
				if r.Bool(0.5) {
					st = Dirty
				}
				_, ev := c.Insert(a, st)
				if ev.State != Invalid {
					if model[ev.Addr] != ev.State {
						t.Fatalf("step %d: evicted %d as %v, model says %v", step, ev.Addr, ev.State, model[ev.Addr])
					}
					delete(model, ev.Addr)
				}
				if model[a] != Dirty {
					model[a] = st
				}
			case r.Bool(0.3):
				if st := c.Invalidate(a); st != model[a] {
					t.Fatalf("step %d: Invalidate(%d) = %v, model says %v", step, a, st, model[a])
				}
				delete(model, a)
			case r.Bool(0.3):
				c.MarkClean(a)
				if _, ok := model[a]; ok {
					model[a] = Clean
				}
			case r.Bool(0.5):
				if c.Lookup(a) != nil {
					c.MarkDirty(a)
					model[a] = Dirty
				}
			case r.Bool(0.01):
				c.Reset()
				clear(model)
			default:
				c.Access(a)
			}
			checkTags(t, c, model, step)
			if step%7 == 0 {
				checkOccupancy(t, c, "mid-sequence")
			}
		}
		checkOccupancy(t, c, "final")
	}
}

// TestOccupancyFastPathsAgree checks DirtyInSet / LinesInSet /
// DirtyLinesInSet (which consult the counts) against what a scan of the
// ways reports.
func TestOccupancyFastPathsAgree(t *testing.T) {
	c := MustNew(4<<10, 2, 64) // 32 sets
	r := rng.New(7)
	for step := 0; step < 500; step++ {
		a := LineAddr(r.Intn(200))
		if r.Bool(0.6) {
			st := Clean
			if r.Bool(0.4) {
				st = Dirty
			}
			c.Insert(a, st)
		} else {
			c.Invalidate(a)
		}
	}
	for s := 0; s < c.NumSets(); s++ {
		valid, dirty := 0, 0
		for _, l := range c.lines[s*c.ways : (s+1)*c.ways] {
			if l.State != Invalid {
				valid++
			}
			if l.State == Dirty {
				dirty++
			}
		}
		if got := c.DirtyInSet(s); got != (dirty > 0) {
			t.Fatalf("set %d: DirtyInSet = %v, scan says %d dirty", s, got, dirty)
		}
		if got := len(c.LinesInSet(s, nil)); got != valid {
			t.Fatalf("set %d: LinesInSet returned %d lines, scan says %d", s, got, valid)
		}
		if got := len(c.DirtyLinesInSet(s, nil)); got != dirty {
			t.Fatalf("set %d: DirtyLinesInSet returned %d lines, scan says %d", s, got, dirty)
		}
	}
}

// TestAndSetMasks checks the δ-mask intersection entry points used by
// signature expansion.
func TestAndSetMasks(t *testing.T) {
	c := MustNew(32<<10, 4, 64) // 128 sets, 2 mask words
	c.Insert(3, Clean)
	c.Insert(70, Dirty)

	all := []uint64{^uint64(0), ^uint64(0)}
	c.AndValidSets(all)
	if all[0] != 1<<3 || all[1] != 1<<(70-64) {
		t.Fatalf("AndValidSets = %#x,%#x; want bits 3 and 70", all[0], all[1])
	}
	all = []uint64{^uint64(0), ^uint64(0)}
	c.AndDirtySets(all)
	if all[0] != 0 || all[1] != 1<<(70-64) {
		t.Fatalf("AndDirtySets = %#x,%#x; want only bit 70", all[0], all[1])
	}
}

// TestStatsCounters pins down the Evictions / DirtyEvicts / Invals
// semantics: evictions count only displaced valid lines, dirty evictions
// the dirty subset, invalidations only lines actually present.
func TestStatsCounters(t *testing.T) {
	c := MustNew(2*64, 1, 64) // 2 sets, direct-mapped: address parity picks the set
	// Fill set 0 (addr 0, clean) and set 1 (addr 1, dirty).
	c.Insert(0, Clean)
	c.Insert(1, Dirty)
	if s := c.Stats(); s.Evictions != 0 || s.DirtyEvicts != 0 {
		t.Fatalf("fills must not count as evictions: %+v", s)
	}
	// Displace the clean line: eviction, not a dirty one.
	c.Insert(2, Clean)
	if s := c.Stats(); s.Evictions != 1 || s.DirtyEvicts != 0 {
		t.Fatalf("after clean eviction: %+v", s)
	}
	// Displace the dirty line: both counters move.
	c.Insert(3, Clean)
	if s := c.Stats(); s.Evictions != 2 || s.DirtyEvicts != 1 {
		t.Fatalf("after dirty eviction: %+v", s)
	}
	// Invalidate a present line and a missing one: only the hit counts.
	c.Invalidate(2)
	c.Invalidate(1234)
	if s := c.Stats(); s.Invals != 1 {
		t.Fatalf("Invals = %d, want 1 (miss must not count)", s.Invals)
	}
	// Re-inserting into the invalidated way is a fill, not an eviction.
	c.Insert(4, Dirty)
	if s := c.Stats(); s.Evictions != 2 || s.DirtyEvicts != 1 {
		t.Fatalf("insert into invalid way counted as eviction: %+v", s)
	}
	checkOccupancy(t, c, "after stats sequence")
}
