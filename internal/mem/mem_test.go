package mem

import (
	"math/rand"
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

// checkLineIndex asserts that ReadLine agrees with WordsPerLine Reads on
// every line in lines, and that the index holds exactly the lines with a
// non-zero word, each with the mask of those words.
func checkLineIndex(t *testing.T, step int, m *Memory, lines []uint64) {
	t.Helper()
	got := make([]uint64, WordsPerLine)
	for _, line := range lines {
		m.ReadLine(line, got)
		for w := range got {
			if want := uint64(m.Read(line*WordsPerLine + uint64(w))); got[w] != want {
				t.Fatalf("step %d: ReadLine(%d)[%d] = %d, Read = %d", step, line, w, got[w], want)
			}
		}
	}
	want := map[uint64]uint16{}
	m.words.Range(func(a uint64, _ Word) bool {
		want[a/WordsPerLine] |= 1 << (a % WordsPerLine)
		return true
	})
	if m.lines.Len() != len(want) {
		t.Fatalf("step %d: index holds %d lines, %d have a non-zero word", step, m.lines.Len(), len(want))
	}
	m.lines.Range(func(line uint64, mask uint16) bool {
		if mask != want[line] {
			t.Fatalf("step %d: index mask of line %d = %#x, want %#x", step, line, mask, want[line])
		}
		return true
	})
}

func TestReadLineMatchesRead(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := NewMemory()
	var touched []uint64
	emptied := 0
	for step := 0; step < 3000; step++ {
		// Three words in each of six lines, half the writes zero, so lines
		// fill up and empty out again.
		line := uint64(r.Intn(6)) + 70
		a := line*WordsPerLine + uint64(7*r.Intn(3))
		v := Word(0)
		if r.Intn(2) == 0 {
			v = Word(r.Intn(3) + 1)
		}
		wasLive := m.lines.Has(line)
		m.Write(a, v)
		if wasLive && !m.lines.Has(line) {
			emptied++
		}
		if !slices.Contains(touched, line) {
			touched = append(touched, line)
		}
		checkLineIndex(t, step, m, touched)
		if step%500 == 499 {
			// A reset memory must drop the index with the words.
			m.Reset()
			checkLineIndex(t, step, m, touched)
		}
	}
	if emptied == 0 {
		t.Fatal("no write emptied a line; the stream does not exercise index deletion")
	}
}

func TestOverflowAreaSpillFetch(t *testing.T) {
	o := NewOverflowArea()
	if !o.Empty() {
		t.Fatal("new area must be empty")
	}
	o.Spill(100, 1<<0|1<<3, []Word{1, 77, 77, 2}) // words 0 and 3 valid
	o.Spill(100, 1<<1, []Word{0, 9})              // merge into same line
	if o.Len() != 1 {
		t.Fatalf("Len=%d, want 1", o.Len())
	}
	mask, words, ok := o.Fetch(100)
	if !ok || mask != 1<<0|1<<1|1<<3 || words[0] != 1 || words[1] != 9 || words[3] != 2 {
		t.Fatalf("Fetch returned %#x, %v, %v", mask, words, ok)
	}
	if _, _, ok := o.Fetch(200); ok {
		t.Fatal("absent line must not be found")
	}
	st := o.Stats()
	if st.Spills != 2 || st.Fetches != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestOverflowDisambiguationScan(t *testing.T) {
	o := NewOverflowArea()
	o.Spill(5, 1<<0, []Word{1})
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
	o.Spill(1, 1<<0, []Word{5})
	o.Dealloc()
	if !o.Empty() || o.Stats().Deallocs != 1 {
		t.Fatalf("Dealloc failed: empty=%v stats=%+v", o.Empty(), o.Stats())
	}
}

func TestOverflowLinesAndContains(t *testing.T) {
	o := NewOverflowArea()
	o.Spill(10, 0, nil)
	o.Spill(20, 0, nil)
	if !o.Contains(10) || o.Contains(30) {
		t.Fatal("Contains wrong")
	}
	lines := o.Lines()
	if len(lines) != 2 {
		t.Fatalf("Lines=%v", lines)
	}
	// Contains must not charge a Fetch.
	if o.Stats().Fetches != 0 {
		t.Fatal("Contains must be free of Fetch accounting")
	}
}
