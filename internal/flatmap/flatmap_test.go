package flatmap

import (
	"slices"
	"testing"

	"bulk/internal/rng"
)

// checkEqual asserts the flatmap and the reference builtin map hold
// identical contents, via Len, Get, Has, Range, and SortedKeys.
func checkEqual(t *testing.T, fm *Map[uint64], ref map[uint64]uint64) {
	t.Helper()
	if fm.Len() != len(ref) {
		t.Fatalf("Len = %d, reference has %d entries", fm.Len(), len(ref))
	}
	for k, v := range ref {
		got, ok := fm.Get(k)
		if !ok || got != v {
			t.Fatalf("Get(%d) = (%d,%v), want (%d,true)", k, got, ok, v)
		}
		if !fm.Has(k) {
			t.Fatalf("Has(%d) = false, want true", k)
		}
	}
	seen := map[uint64]uint64{}
	fm.Range(func(k, v uint64) bool {
		if _, dup := seen[k]; dup {
			t.Fatalf("Range yielded key %d twice", k)
		}
		seen[k] = v
		return true
	})
	if len(seen) != len(ref) {
		t.Fatalf("Range yielded %d entries, want %d", len(seen), len(ref))
	}
	for k, v := range ref {
		if seen[k] != v {
			t.Fatalf("Range yielded %d=%d, want %d", k, seen[k], v)
		}
	}
	want := make([]uint64, 0, len(ref))
	for k := range ref {
		want = append(want, k)
	}
	slices.Sort(want)
	got := fm.SortedKeys(nil)
	if !slices.Equal(got, want) {
		t.Fatalf("SortedKeys = %v, want %v", got, want)
	}
}

// TestDifferentialAgainstBuiltinMap drives random put/get/delete/reset
// sequences through the flatmap and a builtin map in lockstep. Key ranges
// are kept small enough that deletes hit live entries and probe chains
// overlap, exercising the backshift path hard.
func TestDifferentialAgainstBuiltinMap(t *testing.T) {
	for _, keyRange := range []uint64{7, 64, 1024, 1 << 40} {
		r := rng.New(0xF1A7 + keyRange)
		fm := &Map[uint64]{}
		ref := map[uint64]uint64{}
		for step := 0; step < 8000; step++ {
			k := uint64(r.Intn(int(min(keyRange, 1<<30))))
			if keyRange > 1<<30 {
				k = r.Uint64()
			}
			switch {
			case r.Bool(0.5):
				v := r.Uint64()
				fm.Put(k, v)
				ref[k] = v
			case r.Bool(0.6):
				_, wantOK := ref[k]
				if gotOK := fm.Delete(k); gotOK != wantOK {
					t.Fatalf("step %d: Delete(%d) = %v, want %v", step, k, gotOK, wantOK)
				}
				delete(ref, k)
			case r.Bool(0.02):
				fm.Reset()
				ref = map[uint64]uint64{}
			default:
				gotV, gotOK := fm.Get(k)
				wantV, wantOK := ref[k]
				if gotOK != wantOK || gotV != wantV {
					t.Fatalf("step %d: Get(%d) = (%d,%v), want (%d,%v)",
						step, k, gotV, gotOK, wantV, wantOK)
				}
			}
		}
		checkEqual(t, fm, ref)
	}
}

// TestZeroKeyAndZeroValue ensures key 0 and value 0 are ordinary citizens
// (the occupancy bitmap, not a sentinel key, marks live slots).
func TestZeroKeyAndZeroValue(t *testing.T) {
	fm := &Map[uint64]{}
	if _, ok := fm.Get(0); ok {
		t.Fatal("empty map reports key 0 present")
	}
	fm.Put(0, 0)
	if v, ok := fm.Get(0); !ok || v != 0 {
		t.Fatalf("Get(0) = (%d,%v), want (0,true)", v, ok)
	}
	if fm.Len() != 1 {
		t.Fatalf("Len = %d, want 1", fm.Len())
	}
	if !fm.Delete(0) {
		t.Fatal("Delete(0) = false, want true")
	}
	if fm.Len() != 0 || fm.Has(0) {
		t.Fatal("key 0 survived deletion")
	}
}

// TestResetKeepsCapacity verifies Reset empties the table without
// shrinking it and the table remains fully usable.
func TestResetKeepsCapacity(t *testing.T) {
	fm := &Map[uint64]{}
	for i := uint64(0); i < 1000; i++ {
		fm.Put(i, i*3)
	}
	capBefore := len(fm.keys)
	fm.Reset()
	if fm.Len() != 0 {
		t.Fatalf("Len after Reset = %d", fm.Len())
	}
	if len(fm.keys) != capBefore {
		t.Fatalf("Reset changed capacity %d -> %d", capBefore, len(fm.keys))
	}
	for i := uint64(0); i < 100; i++ {
		if fm.Has(i) {
			t.Fatalf("key %d visible after Reset", i)
		}
		fm.Put(i, i)
	}
	if fm.Len() != 100 {
		t.Fatalf("Len after refill = %d, want 100", fm.Len())
	}
}

// TestSortedKeysAppendsToScratch verifies only the appended region is
// sorted, preserving an existing prefix.
func TestSortedKeysAppendsToScratch(t *testing.T) {
	fm := &Map[uint64]{}
	fm.Put(5, 1)
	fm.Put(2, 1)
	got := fm.SortedKeys([]uint64{99})
	want := []uint64{99, 2, 5}
	if !slices.Equal(got, want) {
		t.Fatalf("SortedKeys with prefix = %v, want %v", got, want)
	}
}

// TestDeleteChains builds colliding probe chains and deletes from their
// middle, checking every survivor stays reachable (the classic backshift
// bug is losing the tail of a shifted chain).
func TestDeleteChains(t *testing.T) {
	fm := &Map[uint64]{}
	ref := map[uint64]uint64{}
	// Dense sequential keys into a small table force adjacent occupied
	// runs spanning word boundaries of the occupancy bitmap.
	for i := uint64(0); i < 48; i++ {
		fm.Put(i, i+100)
		ref[i] = i + 100
	}
	for _, k := range []uint64{13, 14, 15, 16, 17, 0, 47, 30} {
		fm.Delete(k)
		delete(ref, k)
		checkEqual(t, fm, ref)
	}
}

// TestSetDifferentialAgainstBuiltinMap drives random add/reset sequences
// through Set and a map[uint64]bool in lockstep — Set wraps Map but its
// checker role (fingerprint and visited sets) warrants its own
// differential check.
func TestSetDifferentialAgainstBuiltinMap(t *testing.T) {
	r := rng.New(0x5E7)
	fs := &Set{}
	ref := map[uint64]bool{}
	for step := 0; step < 8000; step++ {
		k := uint64(r.Intn(512))
		switch {
		case r.Bool(0.5):
			fs.Add(k)
			ref[k] = true
		case r.Bool(0.02):
			fs.Reset()
			ref = map[uint64]bool{}
		default:
			if fs.Has(k) != ref[k] {
				t.Fatalf("step %d: Has(%d) = %v, want %v", step, k, fs.Has(k), ref[k])
			}
		}
		if fs.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, fs.Len(), len(ref))
		}
	}
	want := make([]uint64, 0, len(ref))
	for k := range ref {
		want = append(want, k)
	}
	slices.Sort(want)
	if got := fs.SortedKeys(nil); !slices.Equal(got, want) {
		t.Fatalf("SortedKeys = %v, want %v", got, want)
	}
}

// FuzzMapVsBuiltin feeds byte-coded operation streams through both maps.
// Each 3-byte group encodes (op, key): op&3 selects put/delete/get, the
// key is two bytes so collisions and reuse are common.
func FuzzMapVsBuiltin(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 1, 2, 2, 1, 2})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 2, 0, 0})
	f.Add([]byte{0, 5, 1, 0, 5, 2, 1, 5, 1, 2, 5, 1, 0, 9, 9, 1, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		fm := &Map[uint64]{}
		ref := map[uint64]uint64{}
		for i := 0; i+2 < len(data); i += 3 {
			op, k := data[i]&3, uint64(data[i+1])<<8|uint64(data[i+2])
			switch op {
			case 0:
				v := uint64(i)
				fm.Put(k, v)
				ref[k] = v
			case 1:
				_, wantOK := ref[k]
				if fm.Delete(k) != wantOK {
					t.Fatalf("op %d: Delete(%d) disagreed with reference", i, k)
				}
				delete(ref, k)
			case 2:
				gotV, gotOK := fm.Get(k)
				wantV, wantOK := ref[k]
				if gotOK != wantOK || gotV != wantV {
					t.Fatalf("op %d: Get(%d) = (%d,%v), want (%d,%v)",
						i, k, gotV, gotOK, wantV, wantOK)
				}
			case 3:
				fm.Reset()
				ref = map[uint64]uint64{}
			}
		}
		if fm.Len() != len(ref) {
			t.Fatalf("final Len = %d, want %d", fm.Len(), len(ref))
		}
		for k, v := range ref {
			if got, ok := fm.Get(k); !ok || got != v {
				t.Fatalf("final Get(%d) = (%d,%v), want (%d,true)", k, got, ok, v)
			}
		}
	})
}
