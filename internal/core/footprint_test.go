package core

import (
	"reflect"
	"slices"
	"testing"

	"bulk/internal/cache"
	"bulk/internal/mem"
)

// TestFootprintReset: Reset empties the buffer and every set, and leaves
// the version to the policy that allocated it.
func TestFootprintReset(t *testing.T) {
	q := newQuota(t, &BDM{Versions: 1}, 0)
	v, err := q.Modules[0].AllocVersion(8)
	if err != nil {
		t.Fatal(err)
	}
	var f Footprint
	f.Write(100, 101)
	f.WriteShadow(117, 118)
	f.Read(102)
	f.Version = v
	f.Reset()
	if f.ReadWords()+f.WrittenWords()+f.Lines(Reads)+f.Lines(Writes) != 0 || f.Line(LineOf(100)) != (Masks{}) || f.Version != v {
		t.Fatal("Reset left a set non-empty or dropped the version")
	}
	if _, ok := f.Value(100); ok {
		t.Fatal("Reset left a buffered value")
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
		f.Write(i*37, i)
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

// written is a footprint that wrote a word of each of the given lines.
func written(lines ...uint64) *Footprint {
	var f Footprint
	for _, l := range lines {
		f.Write(l*WordsPerLine+3, l)
	}
	return &f
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

// TestDrop: Drop invalidates, in one cache, only the selected lines of the
// footprint held in the given state — a squash dropping its dirty writes
// must keep the clean lines it shares a set with, and a spawn dropping
// clean copies must keep dirty ones.
func TestDrop(t *testing.T) {
	q := exactCaches(t)
	f := written(0x10, 0x11, 0x20, 0x21, 0x99) // 0x99 is not resident
	f.Read(0x12*WordsPerLine + 5)
	f.Read(0x22*WordsPerLine + 5)
	q.Drop(0, f, Writes, cache.Dirty)
	if got, want := resident(q.Caches[0], allLines...), []uint64{0x10, 0x11, 0x12, 0x13, 0x22, 0x23}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after a dirty drop, proc 0 holds %#x, want %#x", got, want)
	}
	q.Drop(0, f, Writes, cache.Clean)
	if got, want := resident(q.Caches[0], allLines...), []uint64{0x12, 0x13, 0x22, 0x23}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after a clean drop, proc 0 holds %#x, want %#x", got, want)
	}
	q.Drop(0, f, Reads, cache.Clean)
	if got, want := resident(q.Caches[0], allLines...), []uint64{0x13, 0x22, 0x23}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after a clean drop of the reads, proc 0 holds %#x, want %#x", got, want)
	}
	if got := resident(q.Caches[1], allLines...); !reflect.DeepEqual(got, allLines) {
		t.Fatalf("Drop on proc 0 reached proc 1, which holds %#x", got)
	}
}

// TestInvalidateLines: a receiver loses its copies of every line the
// footprint wrote, clean or dirty, and keeps the rest; other caches are
// untouched.
func TestInvalidateLines(t *testing.T) {
	q := exactCaches(t)
	f := written(0x11, 0x12, 0x22, 0x99)
	f.Read(0x13 * WordsPerLine)
	q.InvalidateLines(1, f)
	if got, want := resident(q.Caches[1], allLines...), []uint64{0x10, 0x13, 0x20, 0x21, 0x23}; !reflect.DeepEqual(got, want) {
		t.Fatalf("receiver holds %#x, want %#x", got, want)
	}
	if got := resident(q.Caches[0], allLines...); !reflect.DeepEqual(got, allLines) {
		t.Fatalf("InvalidateLines on proc 1 reached proc 0, which holds %#x", got)
	}
}

// fuzzLines are the lines FuzzFootprint's streams touch: far apart in the
// address space, each in its own set of the test caches.
var fuzzLines = []uint64{0x10, 0x31, 1<<32 | 0x12, 1<<59 | 0x13}

// fpModel is a footprint as a map of words: the specification the
// line-keyed table must agree with.
type fpModel struct {
	read, shadow map[uint64]bool
	vals         map[uint64]uint64
}

func newModel() fpModel {
	return fpModel{read: map[uint64]bool{}, shadow: map[uint64]bool{}, vals: map[uint64]uint64{}}
}

// lines returns the model's sorted lines with a word in set.
func lines[V any](set map[uint64]V) []uint64 {
	var ls []uint64
	for w := range set {
		if l := LineOf(w); !slices.Contains(ls, l) {
			ls = append(ls, l)
		}
	}
	slices.Sort(ls)
	return ls
}

// FuzzFootprint drives random streams of reads, writes, shadow writes,
// merges and resets through two footprints and compares each against a
// map-of-words model after every step: the buffered values, the exact word
// and line tests, the word and line counts, the sorted lines, the
// overlaps, the memory Apply leaves and the order it writes in, and the
// lines Drop and InvalidateLines invalidate.
func FuzzFootprint(f *testing.F) {
	f.Add([]byte{6, 0x13, 0, 0x13, 8, 0x25, 10, 0x25, 13, 0x07, 12, 0x31, 2, 0x13, 14, 0})
	f.Add([]byte{7, 0x01, 6, 0x01, 6, 0x01, 9, 0x3f, 11, 0x3f, 12, 0, 15, 0, 2, 0x3f, 6, 0x20})
	f.Fuzz(func(t *testing.T, ops []byte) {
		q := newQuota(t, nil, 0, 0)
		var fps [2]Footprint
		ms := [2]fpModel{newModel(), newModel()}
		for i := 0; i+1 < len(ops); i += 2 {
			k, arg := ops[i]&1, ops[i+1]
			word := fuzzLines[arg>>4&3]*WordsPerLine + uint64(arg&15)
			fp, m := &fps[k], &ms[k]
			switch (ops[i] >> 1) % 8 {
			case 0, 1, 2:
				v, ok := fp.Read(word)
				if want, wok := m.vals[word]; v != want || ok != wok {
					t.Fatalf("step %d: Read(%#x) = %d, %v; want %d, %v", i, word, v, ok, want, wok)
				}
				m.read[word] = true
			case 3, 4:
				fp.Write(word, uint64(i)+1)
				m.vals[word] = uint64(i) + 1
			case 5:
				fp.WriteShadow(word, uint64(i)+1)
				m.vals[word] = uint64(i) + 1
				m.shadow[word] = true
			case 6:
				fp.Merge(&fps[1-k])
				o := ms[1-k]
				for w := range o.read {
					m.read[w] = true
				}
				for w := range o.shadow {
					m.shadow[w] = true
				}
				for w, v := range o.vals {
					m.vals[w] = v
				}
			case 7:
				fp.Reset()
				*m = newModel()
			}
			for j := range fps {
				checkFootprint(t, i, q, &fps[j], &ms[j])
			}
			for _, shadow := range []bool{false, true} {
				got := fps[k].Overlap(fps[1-k].Line, shadow)
				if want := overlap(&ms[k], &ms[1-k], shadow); got != want {
					t.Fatalf("step %d: Overlap(shadow=%v) = %+v, want %+v", i, shadow, got, want)
				}
			}
		}
	})
}

// overlap is Footprint.Overlap on models.
func overlap(f, g *fpModel, shadow bool) (o Overlap) {
	for w := range f.vals {
		if shadow && !f.shadow[w] {
			continue
		}
		if _, wrote := g.vals[w]; wrote || g.read[w] {
			o.Words++
		}
		o.Read = o.Read || g.read[w]
	}
	touched := append(lines(g.read), lines(g.vals)...)
	for _, l := range lines(f.vals) {
		for w := l * WordsPerLine; w < (l+1)*WordsPerLine; w++ {
			if _, ok := f.vals[w]; ok && (!shadow || f.shadow[w]) && slices.Contains(touched, l) {
				o.Lines++
				break
			}
		}
	}
	return o
}

// checkFootprint compares fp with its model m after step i.
func checkFootprint(t *testing.T, i int, q *quota, fp *Footprint, m *fpModel) {
	t.Helper()
	for _, l := range fuzzLines {
		var want Masks
		for w := l * WordsPerLine; w < (l+1)*WordsPerLine; w++ {
			v, ok := fp.Value(w)
			if wv, wok := m.vals[w]; v != wv || ok != wok {
				t.Fatalf("step %d: Value(%#x) = %d, %v; want %d, %v", i, w, v, ok, wv, wok)
			}
			b := WordBit(w)
			if m.read[w] {
				want.R |= b
			}
			if _, ok := m.vals[w]; ok {
				want.W |= b
			}
			if m.shadow[w] {
				want.Sh |= b
			}
		}
		if got := fp.Line(l); got != want {
			t.Fatalf("step %d: Line(%#x) = %+v, want %+v", i, l, got, want)
		}
	}
	rl, wl := lines(m.read), lines(m.vals)
	if fp.ReadWords() != len(m.read) || fp.WrittenWords() != len(m.vals) || fp.Lines(Reads) != len(rl) || fp.Lines(Writes) != len(wl) {
		t.Fatalf("step %d: counts read %d words %d lines, wrote %d words %d lines; want %d %d, %d %d", i,
			fp.ReadWords(), fp.Lines(Reads), fp.WrittenWords(), fp.Lines(Writes), len(m.read), len(rl), len(m.vals), len(wl))
	}
	if got := fp.SortedLines(nil, Reads); !slices.Equal(got, rl) {
		t.Fatalf("step %d: SortedLines(Reads) = %#x, want %#x", i, got, rl)
	}
	if got := fp.SortedLines(nil, Writes); !slices.Equal(got, wl) {
		t.Fatalf("step %d: SortedLines(Writes) = %#x, want %#x", i, got, wl)
	}

	// Apply writes the model's words, in ascending address order.
	q.Mem = mem.NewMemory()
	q.Apply(fp)
	want := mem.NewMemory()
	addrs := make([]uint64, 0, len(m.vals))
	for w := range m.vals {
		addrs = append(addrs, w)
	}
	slices.Sort(addrs)
	for _, w := range addrs {
		want.Write(w, mem.Word(m.vals[w]))
	}
	if !reflect.DeepEqual(q.Mem, want) {
		t.Fatalf("step %d: Apply left a memory unlike the model's words written in address order", i)
	}

	// Drop and InvalidateLines: every fuzz line resident in both caches,
	// clean or dirty by its index; each call must invalidate exactly the
	// lines it selects.
	for _, a := range []Access{Reads, Writes} {
		sel := rl
		if a == Writes {
			sel = wl
		}
		for _, st := range []cache.State{cache.Clean, cache.Dirty} {
			var keep []uint64
			for j, l := range fuzzLines {
				c := q.Caches[0]
				lst := cache.Clean
				if j%2 == 1 {
					lst = cache.Dirty
				}
				c.Invalidate(cache.LineAddr(l))
				c.Insert(cache.LineAddr(l), lst)
				if lst != st || !slices.Contains(sel, l) {
					keep = append(keep, l)
				}
			}
			q.Drop(0, fp, a, st)
			if got := resident(q.Caches[0], fuzzLines...); !slices.Equal(got, keep) {
				t.Fatalf("step %d: Drop(%v, %v) kept %#x, want %#x", i, a, st, got, keep)
			}
		}
	}
	var keep []uint64
	for _, l := range fuzzLines {
		q.Caches[1].Invalidate(cache.LineAddr(l))
		q.Caches[1].Insert(cache.LineAddr(l), cache.Dirty)
		if !slices.Contains(wl, l) {
			keep = append(keep, l)
		}
	}
	q.InvalidateLines(1, fp)
	if got := resident(q.Caches[1], fuzzLines...); !slices.Equal(got, keep) {
		t.Fatalf("step %d: InvalidateLines kept %#x, want %#x", i, got, keep)
	}
}
