package cache

import (
	"testing"

	"bulk/internal/rng"
)

func TestGeometry(t *testing.T) {
	// TLS config of Table 5: 16KB, 4-way, 64B lines -> 64 sets.
	c := MustNew(16<<10, 4, 64)
	if c.NumSets() != 64 || c.IndexBits() != 6 || c.Ways() != 4 || c.LineBytes() != 64 {
		t.Fatalf("TLS geometry wrong: sets=%d idx=%d", c.NumSets(), c.IndexBits())
	}
	// TM config: 32KB, 4-way, 64B -> 128 sets.
	c2 := MustNew(32<<10, 4, 64)
	if c2.NumSets() != 128 || c2.IndexBits() != 7 {
		t.Fatalf("TM geometry wrong: sets=%d", c2.NumSets())
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct{ size, ways, line int }{
		{0, 4, 64}, {1024, 0, 64}, {1024, 4, 0},
		{1000, 4, 64},       // not divisible
		{3 * 64 * 4, 4, 64}, // 3 sets, not a power of two
	}
	for _, tc := range cases {
		if _, err := New(tc.size, tc.ways, tc.line); err == nil {
			t.Errorf("New(%d,%d,%d) must fail", tc.size, tc.ways, tc.line)
		}
	}
}

func TestInsertLookupInvalidate(t *testing.T) {
	c := MustNew(1024, 2, 64) // 8 sets
	a := LineAddr(0x42)
	if c.Contains(a) {
		t.Fatal("empty cache must not contain anything")
	}
	l, ev := c.Insert(a, Clean)
	if ev.State != Invalid {
		t.Fatal("inserting into an empty set must not evict")
	}
	if l.State != Clean {
		t.Fatalf("inserted line wrong: %+v", l)
	}
	if got := c.Lookup(a); got != l {
		t.Fatal("Lookup must find the inserted line")
	}
	if st := c.Invalidate(a); st != Clean {
		t.Fatalf("Invalidate returned %v, want Clean", st)
	}
	if c.Contains(a) {
		t.Fatal("invalidated line must be gone")
	}
	if st := c.Invalidate(a); st != Invalid {
		t.Fatal("re-invalidating must report Invalid")
	}
}

func TestInsertUpgradesState(t *testing.T) {
	c := MustNew(1024, 2, 64)
	a := LineAddr(5)
	c.Insert(a, Clean)
	l, ev := c.Insert(a, Dirty)
	if ev.State != Invalid {
		t.Fatal("re-inserting present line must not evict")
	}
	if l.State != Dirty {
		t.Fatal("insert must upgrade Clean to Dirty")
	}
	// Dirty stays dirty even when re-inserted clean (the write-back
	// obligation cannot be silently dropped).
	l2, _ := c.Insert(a, Clean)
	if l2.State != Dirty {
		t.Fatal("insert must not silently downgrade Dirty to Clean")
	}
}

func TestLRUEviction(t *testing.T) {
	c := MustNew(2*64, 2, 64) // 1 set, 2 ways
	c.Insert(0, Clean)
	c.Insert(1, Clean)
	// Touch 0 so 1 becomes LRU.
	if c.Access(0) == nil {
		t.Fatal("line 0 must hit")
	}
	_, ev := c.Insert(2, Clean)
	if ev.State == Invalid || ev.Addr != 1 {
		t.Fatalf("expected eviction of LRU line 1, got %+v", ev)
	}
	if !c.Contains(0) || !c.Contains(2) || c.Contains(1) {
		t.Fatal("cache contents wrong after eviction")
	}
}

func TestEvictionReportsDirty(t *testing.T) {
	c := MustNew(2*64, 2, 64)
	c.Insert(0, Dirty)
	c.Insert(1, Clean)
	_, ev := c.Insert(2, Clean)
	if ev.State != Dirty || ev.Addr != 0 {
		t.Fatalf("expected dirty eviction of 0, got %+v", ev)
	}
	st := c.Stats()
	if st.DirtyEvicts != 1 || st.Evictions != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func TestSetIndexMapping(t *testing.T) {
	c := MustNew(16<<10, 4, 64) // 64 sets
	for _, a := range []LineAddr{0, 63, 64, 127, 1 << 20} {
		want := int(a % 64)
		if got := c.SetIndex(a); got != want {
			t.Errorf("SetIndex(%d)=%d, want %d", a, got, want)
		}
	}
	// Addresses 64 apart collide in the same set.
	c2 := MustNew(2*64, 2, 64) // 1 set... use 4 sets instead
	c3 := MustNew(4*2*64, 2, 64)
	if c3.SetIndex(3) != c3.SetIndex(7) {
		t.Error("addresses 4 apart must share a set in a 4-set cache")
	}
	_ = c2
}

func TestLinesInSetAndDirtyQueries(t *testing.T) {
	c := MustNew(4*2*64, 2, 64) // 4 sets, 2 ways
	c.Insert(0, Clean)          // set 0
	c.Insert(4, Dirty)          // set 0
	c.Insert(1, Clean)          // set 1
	lines := c.LinesInSet(0, nil)
	if len(lines) != 2 {
		t.Fatalf("set 0 must have 2 valid lines, got %d", len(lines))
	}
	if !c.DirtyInSet(0) || c.DirtyInSet(1) || c.DirtyInSet(2) {
		t.Fatal("DirtyInSet wrong")
	}
	dirty := c.DirtyLinesInSet(0, nil)
	if len(dirty) != 1 || dirty[0] != 4 {
		t.Fatalf("DirtyLinesInSet wrong: %+v", dirty)
	}
	c.Reset()
	for set := 0; set < c.NumSets(); set++ {
		if lines := c.LinesInSet(set, nil); len(lines) != 0 || c.DirtyInSet(set) {
			t.Fatalf("set %d holds %v after Reset", set, lines)
		}
	}
	if c.Contains(0) || c.Contains(4) || c.Contains(1) {
		t.Fatal("Reset must invalidate every line")
	}
}

func TestMarkClean(t *testing.T) {
	c := MustNew(1024, 2, 64)
	c.Insert(9, Dirty)
	c.MarkClean(9)
	if l := c.Lookup(9); l == nil || l.State != Clean {
		t.Fatal("MarkClean failed")
	}
	c.MarkClean(1234) // absent: no-op, no panic
}

func TestAccessStats(t *testing.T) {
	c := MustNew(1024, 2, 64)
	if c.Access(7) != nil {
		t.Fatal("miss expected")
	}
	c.Insert(7, Clean)
	if c.Access(7) == nil {
		t.Fatal("hit expected")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestInsertInvalidPanics(t *testing.T) {
	c := MustNew(1024, 2, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("Insert(Invalid) must panic")
		}
	}()
	c.Insert(1, Invalid)
}

func TestStressRandomOpsInvariant(t *testing.T) {
	// Random inserts/invalidate/access; invariants: a set never holds the
	// same address twice, never exceeds ways valid lines.
	c := MustNew(4<<10, 4, 64) // 16 sets
	r := rng.New(99)
	for op := 0; op < 20000; op++ {
		a := LineAddr(r.Intn(256))
		switch r.Intn(3) {
		case 0:
			st := Clean
			if r.Bool(0.5) {
				st = Dirty
			}
			c.Insert(a, st)
		case 1:
			c.Invalidate(a)
		case 2:
			c.Access(a)
		}
	}
	for set := 0; set < c.NumSets(); set++ {
		lines := c.LinesInSet(set, nil)
		if len(lines) > c.Ways() {
			t.Fatalf("set %d has %d valid lines > %d ways", set, len(lines), c.Ways())
		}
		seen := map[LineAddr]bool{}
		for _, a := range lines {
			if seen[a] {
				t.Fatalf("set %d holds address %d twice", set, a)
			}
			seen[a] = true
			if c.SetIndex(a) != set {
				t.Fatalf("line %d stored in wrong set %d", a, set)
			}
		}
	}
}

func BenchmarkAccessHit(b *testing.B) {
	c := MustNew(32<<10, 4, 64)
	c.Insert(1, Clean)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(1)
	}
}

// lookupSink keeps the benchmarked lookups from being optimized away.
var lookupSink *Line

// BenchmarkLookup times the tag match on a warmed 32 KiB 4-way cache with
// every set full: hits, and misses that compare all four tags.
func BenchmarkLookup(b *testing.B) {
	c := MustNew(32<<10, 4, 64)
	for a := LineAddr(0); a < LineAddr(c.NumSets()*c.Ways()); a++ {
		c.Insert(a, Clean)
	}
	miss := LineAddr(c.NumSets() * c.Ways() * 2)
	b.Run("hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lookupSink = c.Lookup(LineAddr(i) & 511)
		}
	})
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lookupSink = c.Lookup(miss + LineAddr(i)&127)
		}
	})
}

func BenchmarkInsertEvict(b *testing.B) {
	c := MustNew(32<<10, 4, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(LineAddr(i), Clean)
	}
}
