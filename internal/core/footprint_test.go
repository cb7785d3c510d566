package core

import (
	"reflect"
	"testing"

	"bulk/internal/cache"
	"bulk/internal/flatmap"
	"bulk/internal/mem"
)

// fill builds a footprint with a buffered write, a read word and a line in
// each set, all derived from base.
func fill(f *Footprint, base uint64) {
	f.Buf.Put(base, base+1)
	f.ReadW.Add(base + 2)
	f.ReadL.Add(LineOf(base + 2))
	f.WriteL.Add(LineOf(base))
}

// TestFootprintReset: Reset empties the buffer and every set, and leaves
// the version to the policy that allocated it.
func TestFootprintReset(t *testing.T) {
	q := newQuota(t, &BDM{Versions: 1}, 0)
	v, err := q.Modules[0].AllocVersion(8)
	if err != nil {
		t.Fatal(err)
	}
	var f Footprint
	fill(&f, 100)
	f.Version = v
	f.Reset()
	if f.Buf.Len()+f.ReadW.Len()+f.ReadL.Len()+f.WriteL.Len() != 0 || f.Version != v {
		t.Fatal("Reset left a set non-empty or dropped the version")
	}
}

// TestApplyWritesInAddressOrder: Apply drains the buffer into committed
// memory in ascending address order, whatever order the words were
// buffered in. The order shows in memory's table layout, which colliding
// keys make depend on insertion order.
func TestApplyWritesInAddressOrder(t *testing.T) {
	const n = 300
	var f Footprint
	for i := uint64(n); i > 0; i-- {
		f.Buf.Put(i*37, i)
	}
	var m Machine[Totals]
	m.Mem = mem.NewMemory()
	m.Apply(&f)
	asc, desc := mem.NewMemory(), mem.NewMemory()
	for i := uint64(1); i <= n; i++ {
		asc.Write(i*37, mem.Word(i))
		desc.Write((n+1-i)*37, mem.Word(n+1-i))
	}
	if reflect.DeepEqual(asc, desc) {
		t.Fatal("write order does not show in the memory layout; the test has no teeth")
	}
	if !reflect.DeepEqual(m.Mem, asc) {
		t.Error("Apply did not write the buffer in ascending address order")
	}
}

// exactCaches gives processors 0 and 1 of a fresh machine the same lines:
// 0x10–0x13 clean, 0x20–0x23 dirty.
func exactCaches(t *testing.T) *quota {
	t.Helper()
	q := newQuota(t, nil, 0, 0)
	for _, c := range q.Caches {
		for i := uint64(0); i < 4; i++ {
			c.Insert(cache.LineAddr(0x10+i), cache.Clean)
			c.Insert(cache.LineAddr(0x20+i), cache.Dirty)
		}
	}
	return q
}

// lineSet is a flatmap.Set of the given lines.
func lineSet(lines ...uint64) *flatmap.Set {
	var s flatmap.Set
	for _, l := range lines {
		s.Add(l)
	}
	return &s
}

// resident lists which of the lines c holds.
func resident(c *cache.Cache, lines ...uint64) []uint64 {
	var in []uint64
	for _, l := range lines {
		if c.Contains(cache.LineAddr(l)) {
			in = append(in, l)
		}
	}
	return in
}

var allLines = []uint64{0x10, 0x11, 0x12, 0x13, 0x20, 0x21, 0x22, 0x23}

// TestDrop: Drop invalidates, in one cache, only the lines of the set held
// in the given state — a squash dropping its dirty writes must keep the
// clean lines it shares a set with, and a spawn dropping clean copies must
// keep dirty ones.
func TestDrop(t *testing.T) {
	q := exactCaches(t)
	set := lineSet(0x10, 0x11, 0x20, 0x21, 0x99) // 0x99 is not resident
	q.Drop(0, set, cache.Dirty)
	if got, want := resident(q.Caches[0], allLines...), []uint64{0x10, 0x11, 0x12, 0x13, 0x22, 0x23}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after a dirty drop, proc 0 holds %#x, want %#x", got, want)
	}
	q.Drop(0, set, cache.Clean)
	if got, want := resident(q.Caches[0], allLines...), []uint64{0x12, 0x13, 0x22, 0x23}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after a clean drop, proc 0 holds %#x, want %#x", got, want)
	}
	if got := resident(q.Caches[1], allLines...); !reflect.DeepEqual(got, allLines) {
		t.Fatalf("Drop on proc 0 reached proc 1, which holds %#x", got)
	}
}

// TestInvalidateLines: a receiver loses its copies of every line of the
// set, clean or dirty, and keeps the rest; other caches are untouched.
func TestInvalidateLines(t *testing.T) {
	q := exactCaches(t)
	q.InvalidateLines(1, lineSet(0x11, 0x12, 0x22, 0x99))
	if got, want := resident(q.Caches[1], allLines...), []uint64{0x10, 0x13, 0x20, 0x21, 0x23}; !reflect.DeepEqual(got, want) {
		t.Fatalf("receiver holds %#x, want %#x", got, want)
	}
	if got := resident(q.Caches[0], allLines...); !reflect.DeepEqual(got, allLines) {
		t.Fatalf("InvalidateLines on proc 1 reached proc 0, which holds %#x", got)
	}
}
