package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(123)
	b := New(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestForkIndependence(t *testing.T) {
	a := New(7)
	f1 := a.Fork()
	// Redo from the same seed, consume a different amount from the fork,
	// and check the parent stream is unaffected.
	b := New(7)
	f2 := b.Fork()
	_ = f2.Uint64()
	_ = f2.Uint64()
	if f1.Uint64() != New(7).Fork().Uint64() {
		t.Fatal("fork must be a pure function of parent state")
	}
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("consuming from a fork must not perturb the parent")
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(42)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(5)
	if r.Bool(0) {
		t.Fatal("Bool(0) must be false")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) must be true")
	}
	trues := 0
	for i := 0; i < 10000; i++ {
		if r.Bool(0.3) {
			trues++
		}
	}
	frac := float64(trues) / 10000
	if math.Abs(frac-0.3) > 0.03 {
		t.Fatalf("Bool(0.3) true fraction %.3f too far from 0.3", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(3)
	const n = 20000
	sum := 0
	for i := 0; i < n; i++ {
		v := r.Geometric(10)
		if v < 1 {
			t.Fatalf("Geometric must return >= 1, got %d", v)
		}
		sum += v
	}
	mean := float64(sum) / n
	if math.Abs(mean-10) > 1 {
		t.Fatalf("Geometric(10) sample mean %.2f too far from 10", mean)
	}
	if r.Geometric(0.5) != 1 {
		t.Fatal("Geometric(m<=1) must return 1")
	}
}

func TestNormalishInt(t *testing.T) {
	r := New(8)
	sum := 0
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.NormalishInt(100, 20, 1)
		if v < 1 {
			t.Fatalf("NormalishInt below min: %d", v)
		}
		sum += v
	}
	mean := float64(sum) / n
	if math.Abs(mean-100) > 2 {
		t.Fatalf("NormalishInt mean %.2f too far from 100", mean)
	}
	if got := r.NormalishInt(5, 0, 10); got != 10 {
		t.Fatalf("NormalishInt with mean<min must clamp to min, got %d", got)
	}
}

func TestUint64nThreshold(t *testing.T) {
	r := New(12)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(3); v >= 3 {
			t.Fatalf("Uint64n(3) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) must panic")
		}
	}()
	r.Uint64n(0)
}

// refUint64n is the plain threshold-rejection loop Uint64n's doc
// describes: two divisions per draw, no shortcut.
func refUint64n(r *Rand, n uint64) uint64 {
	threshold := -n % n // (2^64 - n) % n
	for {
		v := r.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// TestUint64nMatchesThresholdLoop pins Uint64n's shortcuts as exact: draw
// by draw over many seeds, it returns the reference loop's values and
// leaves the stream where the loop leaves it. The last two n are where a
// draw below n is common, so the threshold is computed and can reject.
func TestUint64nMatchesThresholdLoop(t *testing.T) {
	var ns []uint64
	for n := uint64(1); n <= 4096; n++ {
		ns = append(ns, n)
	}
	for k := 12; k < 64; k++ {
		ns = append(ns, 1<<k)
	}
	ns = append(ns, 1<<63+1, ^uint64(0))
	rejected := 0
	for _, n := range ns {
		seeds := uint64(4)
		if n > 4096 {
			seeds = 256
		}
		for seed := uint64(0); seed < seeds; seed++ {
			got, want := New(seed), New(seed)
			for i := 0; i < 16; i++ {
				once := *want
				once.Uint64()
				g, w := got.Uint64n(n), refUint64n(want, n)
				if g != w {
					t.Fatalf("Uint64n(%d) seed %d draw %d = %d, threshold loop %d", n, seed, i, g, w)
				}
				if once != *want {
					rejected++ // the loop drew more than once
				}
			}
			if got.Uint64() != want.Uint64() {
				t.Fatalf("Uint64n(%d) seed %d: stream position differs from the threshold loop", n, seed)
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no draw was rejected: the test does not reach the rejection branch")
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}
