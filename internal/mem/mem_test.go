package mem

import (
	"slices"
	"testing"
)

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	if m.Read(5) != 0 {
		t.Fatal("unwritten word must read 0")
	}
	m.Write(5, 42)
	if m.Read(5) != 42 {
		t.Fatal("write/read mismatch")
	}
	m.Write(5, 0)
	if m.Read(5) != 0 || m.Len() != 0 {
		t.Fatal("writing zero must erase the entry (sparse invariant)")
	}
}

func TestMemoryEqualAndDiff(t *testing.T) {
	a := NewMemory()
	b := NewMemory()
	if !a.Equal(b) {
		t.Fatal("two empty memories must be equal")
	}
	a.Write(1, 10)
	a.Write(2, 20)
	b.Write(1, 10)
	if a.Equal(b) {
		t.Fatal("differing memories must not be equal")
	}
	d := a.Diff(b, 10)
	if len(d) != 1 || d[0] != 2 {
		t.Fatalf("Diff=%v, want [2]", d)
	}
	b.Write(2, 20)
	if !a.Equal(b) || len(a.Diff(b, 10)) != 0 {
		t.Fatal("memories with same content must be equal")
	}
	// Diff must also catch words present only in other.
	b.Write(3, 30)
	if len(a.Diff(b, 10)) != 1 {
		t.Fatal("Diff must see words present only on one side")
	}
}

func TestMemoryDiff(t *testing.T) {
	// A memory is given as address, value pairs.
	mk := func(words ...uint64) *Memory {
		m := NewMemory()
		for i := 0; i < len(words); i += 2 {
			m.Write(words[i], Word(words[i+1]))
		}
		return m
	}
	for _, tc := range []struct {
		name     string
		m, other *Memory
		max      int
		want     []uint64
	}{
		{name: "equal", m: mk(1, 1), other: mk(1, 1), max: 10},
		{name: "value differs", m: mk(5, 1), other: mk(5, 2), max: 10, want: []uint64{5}},
		{name: "only in m", m: mk(5, 1), other: mk(), max: 10, want: []uint64{5}},
		{name: "only in other", m: mk(), other: mk(9, 3), max: 10, want: []uint64{9}},
		{name: "each address once", m: mk(5, 1), other: mk(5, 2, 9, 3), max: 10, want: []uint64{5, 9}},
		{name: "max truncates", m: mk(1, 1, 2, 2), other: mk(3, 3), max: 2, want: []uint64{1, 2}},
	} {
		if got := tc.m.Diff(tc.other, tc.max); !slices.Equal(got, tc.want) {
			t.Errorf("%s: Diff = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestOverflowAreaSpillFetch(t *testing.T) {
	o := NewOverflowArea()
	if !o.Empty() {
		t.Fatal("new area must be empty")
	}
	o.Spill(100)
	o.Spill(100) // a line spilled twice is held once
	if o.Empty() || !o.Contains(100) {
		t.Fatal("spilled line must be held")
	}
	if !o.Fetch(100) {
		t.Fatal("spilled line must be found")
	}
	if o.Fetch(200) {
		t.Fatal("absent line must not be found")
	}
	st := o.Stats()
	if st.Spills != 2 || st.Fetches != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestOverflowDisambiguationScan(t *testing.T) {
	o := NewOverflowArea()
	o.Spill(5)
	if !o.DisambiguationScan(5) || o.DisambiguationScan(6) {
		t.Fatal("scan presence wrong")
	}
	if o.Stats().DisambiguationAccesses != 2 {
		t.Fatalf("scan accesses = %d, want 2", o.Stats().DisambiguationAccesses)
	}
}

func TestOverflowDealloc(t *testing.T) {
	o := NewOverflowArea()
	o.Dealloc() // empty: no-op, no dealloc counted
	if o.Stats().Deallocs != 0 {
		t.Fatal("deallocating an empty area must not count")
	}
	o.Spill(1)
	o.Dealloc()
	if !o.Empty() || o.Stats().Deallocs != 1 {
		t.Fatalf("Dealloc failed: empty=%v stats=%+v", o.Empty(), o.Stats())
	}
}

func TestOverflowContains(t *testing.T) {
	o := NewOverflowArea()
	o.Spill(10)
	o.Spill(20)
	if !o.Contains(10) || !o.Contains(20) || o.Contains(30) {
		t.Fatal("Contains wrong")
	}
	// Contains must not charge a Fetch.
	if o.Stats().Fetches != 0 {
		t.Fatal("Contains must be free of Fetch accounting")
	}
}
