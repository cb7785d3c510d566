package flatmap

import (
	"slices"
	"testing"

	"bulk/internal/rng"
)

// storageOrder returns the map's entries in storage order. CopyFrom copies
// the layout bit-for-bit, so a faithful copy must agree with its source
// here, not just under key lookup.
func storageOrder(fm *Map[uint64]) (keys, vals []uint64) {
	fm.Range(func(k, v uint64) bool {
		keys = append(keys, k)
		vals = append(vals, v)
		return true
	})
	return keys, vals
}

// checkLayoutEqual asserts dst is a bit-for-bit layout copy of src:
// identical capacity, storage order, and contents.
func checkLayoutEqual(t *testing.T, dst, src *Map[uint64]) {
	t.Helper()
	if dst.Len() != src.Len() {
		t.Fatalf("Len = %d, src has %d", dst.Len(), src.Len())
	}
	if len(dst.keys) != len(src.keys) {
		t.Fatalf("capacity = %d, src has %d", len(dst.keys), len(src.keys))
	}
	dk, dv := storageOrder(dst)
	sk, sv := storageOrder(src)
	if !slices.Equal(dk, sk) || !slices.Equal(dv, sv) {
		t.Fatalf("storage order diverged:\n dst %v=%v\n src %v=%v", dk, dv, sk, sv)
	}
}

// TestCopyFromDifferential copies maps of several sizes into destinations
// of every capacity relationship — fresh, same-capacity reuse, larger, and
// smaller — and checks the copy is layout-identical and then fully
// independent of its source under further mutation.
func TestCopyFromDifferential(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 500} {
		src := &Map[uint64]{}
		ref := map[uint64]uint64{}
		r := rng.New(uint64(n)*2654435761 + 1)
		for i := 0; i < n; i++ {
			k := r.Uint64() % 1024
			src.Put(k, uint64(i))
			ref[k] = uint64(i)
		}
		dsts := map[string]*Map[uint64]{
			"fresh":   {},
			"smaller": {},
			"same":    {},
			"larger":  {},
		}
		for i := uint64(0); i < 16; i++ {
			dsts["smaller"].Put(i, i)
		}
		dsts["same"].CopyFrom(src)
		for k := range dsts["same"].keys {
			dsts["same"].vals[k] = ^uint64(0) // stale garbage a reuse must overwrite
		}
		for i := uint64(0); i < 4096; i++ {
			dsts["larger"].Put(i, i)
		}
		for name, dst := range dsts {
			dst.CopyFrom(src)
			checkLayoutEqual(t, dst, src)
			checkEqual(t, dst, ref)

			// Mutating the copy must not reach the source, and vice versa.
			dst.Put(9999, 42)
			dst.Delete(0)
			if src.Has(9999) {
				t.Fatalf("%s/n=%d: mutating the copy leaked into the source", name, n)
			}
			checkEqual(t, src, ref)
			src.Put(8888, 7)
			if dst.Has(8888) {
				t.Fatalf("%s/n=%d: mutating the source leaked into the copy", name, n)
			}
			src.Delete(8888)
		}
	}
}

// TestCopyFromSelf pins the aliasing contract: copying a map onto itself
// is a no-op, not a corruption.
func TestCopyFromSelf(t *testing.T) {
	fm := &Map[uint64]{}
	ref := map[uint64]uint64{}
	for i := uint64(0); i < 100; i++ {
		fm.Put(i*3, i)
		ref[i*3] = i
	}
	fm.CopyFrom(fm)
	checkEqual(t, fm, ref)

	var fs Set
	for i := uint64(0); i < 100; i++ {
		fs.Add(i * 5)
	}
	fs.CopyFrom(&fs)
	if fs.Len() != 100 || !fs.Has(495) {
		t.Fatalf("self CopyFrom corrupted the set: Len=%d", fs.Len())
	}
}

// TestSetCopyFromDifferential mirrors the map test for Set.
func TestSetCopyFromDifferential(t *testing.T) {
	var src Set
	ref := map[uint64]bool{}
	r := rng.New(99)
	for i := 0; i < 300; i++ {
		k := r.Uint64() % 512
		src.Add(k)
		ref[k] = true
	}
	var dst Set
	dst.Add(123456) // pre-existing content the copy must erase
	dst.CopyFrom(&src)
	if dst.Len() != src.Len() {
		t.Fatalf("Len = %d, src has %d", dst.Len(), src.Len())
	}
	for k := range ref {
		if !dst.Has(k) {
			t.Fatalf("copy lost member %d", k)
		}
	}
	if dst.Has(123456) {
		t.Fatal("copy kept a member the source does not have")
	}
	if !slices.Equal(dst.SortedKeys(nil), src.SortedKeys(nil)) {
		t.Fatal("SortedKeys diverged between copy and source")
	}
	dst.Delete(src.SortedKeys(nil)[0])
	if src.Len() != len(ref) {
		t.Fatal("mutating the copy leaked into the source")
	}
}

// FuzzCopyFrom interleaves CopyFrom with mutation: each 3-byte group is an
// operation on the source, and op 3 snapshots the source into the copy.
// After the stream, the copy must match the reference taken at the last
// snapshot point even though the source kept mutating — the independence
// property snapshot restores rely on.
func FuzzCopyFrom(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 0, 0, 9, 9, 1, 1, 2})
	f.Add([]byte{0, 0, 1, 0, 1, 2, 3, 0, 0, 0, 2, 3, 3, 0, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &Map[uint64]{}
		dst := &Map[uint64]{}
		ref := map[uint64]uint64{}
		var snap map[uint64]uint64
		for i := 0; i+2 < len(data); i += 3 {
			op, k := data[i]&3, uint64(data[i+1])<<8|uint64(data[i+2])
			switch op {
			case 0:
				src.Put(k, uint64(i))
				ref[k] = uint64(i)
			case 1:
				src.Delete(k)
				delete(ref, k)
			case 2:
				src.Reset()
				ref = map[uint64]uint64{}
			case 3:
				dst.CopyFrom(src)
				checkLayoutEqual(t, dst, src)
				snap = make(map[uint64]uint64, len(ref))
				for rk, rv := range ref {
					snap[rk] = rv
				}
			}
		}
		if snap != nil {
			checkEqual(t, dst, snap)
		}
		checkEqual(t, src, ref)
	})
}
