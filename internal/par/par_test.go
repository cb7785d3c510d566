package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"bulk/internal/rng"
)

func TestForEachCoversEveryIndex(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		hits := make([]int, n)
		if err := ForEach(n, func(i int) error {
			hits[i]++
			return nil
		}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, h)
			}
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	// Whatever order the workers claim indices in, the reported error must
	// be the serial-first one.
	e3 := errors.New("e3")
	e7 := errors.New("e7")
	for trial := 0; trial < 20; trial++ {
		err := ForEach(16, func(i int) error {
			switch i {
			case 7:
				return e7
			case 3:
				return e3
			}
			return nil
		})
		if err != e3 {
			t.Fatalf("trial %d: got %v, want e3", trial, err)
		}
	}
}

func TestForEachRunsAllDespiteError(t *testing.T) {
	var mu sync.Mutex
	ran := 0
	err := ForEach(32, func(i int) error {
		mu.Lock()
		ran++
		mu.Unlock()
		if i%2 == 0 {
			return fmt.Errorf("i=%d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "i=0" {
		t.Fatalf("got %v, want i=0", err)
	}
	if ran != 32 {
		t.Fatalf("ran %d of 32 tasks", ran)
	}
}

func TestWorkersBounds(t *testing.T) {
	for _, tc := range []struct{ w, n, want int }{
		{0, 0, 1}, {0, 1, 1}, {3, 8, 3}, {1, 100, 1},
		{0, 1 << 20, runtime.GOMAXPROCS(0)},
	} {
		if got := Workers(tc.w, tc.n); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.w, tc.n, got, tc.want)
		}
	}
}

// TestStealWorkers holds Workers to the cases the former work-stealing
// pool's worker count was checked against: Each sizes itself by the same
// rule, so a non-positive request means GOMAXPROCS, a request above n is
// cut to n, and an empty index space still gets one worker.
func TestStealWorkers(t *testing.T) {
	if got, want := Workers(0, 100), min(runtime.GOMAXPROCS(0), 100); got != want {
		t.Errorf("Workers(0, 100) = %d, want %d (GOMAXPROCS capped at n)", got, want)
	}
	if got := Workers(8, 3); got != 3 {
		t.Errorf("Workers(8, 3) = %d, want 3", got)
	}
	if got := Workers(-1, 0); got != 1 {
		t.Errorf("Workers(-1, 0) = %d, want 1", got)
	}
}

// TestEachCoversEveryIndex: every index in [0, n) is claimed exactly once,
// across worker counts above, at, and below n.
func TestEachCoversEveryIndex(t *testing.T) {
	for _, tc := range []struct{ n, w int }{
		{0, 4}, {1, 4}, {7, 1}, {7, 3}, {7, 7}, {64, 4}, {1000, 8}, {5, 16},
	} {
		claims := make([]atomic.Int32, tc.n)
		Each(tc.n, tc.w, func(_, i int) {
			claims[i].Add(1)
		})
		for i := range claims {
			if got := claims[i].Load(); got != 1 {
				t.Errorf("n=%d w=%d: index %d claimed %d times, want 1", tc.n, tc.w, i, got)
			}
		}
	}
}

// TestEachWorkerIDs: the worker id passed to fn is always below
// Workers(w, n), with more workers asked for than there are indices and
// with one, so per-worker scratch arrays indexed by it are safe.
func TestEachWorkerIDs(t *testing.T) {
	for _, tc := range []struct{ n, w int }{{500, 6}, {3, 8}, {50, 1}} {
		nw := Workers(tc.w, tc.n)
		var bad atomic.Int32
		Each(tc.n, tc.w, func(worker, _ int) {
			if worker < 0 || worker >= nw {
				bad.Add(1)
			}
		})
		if bad.Load() != 0 {
			t.Errorf("n=%d w=%d: %d calls saw a worker id outside [0, %d)", tc.n, tc.w, bad.Load(), nw)
		}
	}
}

// TestEachBlockedIndexDoesNotHang: a worker stalled inside fn must not
// strand the indices after it. Index 0 blocks until every other index has
// run, so the pool completes only if the other workers claim all of them.
func TestEachBlockedIndexDoesNotHang(t *testing.T) {
	const n, w = 256, 4
	var done atomic.Int32
	rest := make(chan struct{})
	Each(n, w, func(_, i int) {
		if i == 0 {
			<-rest // stall until the other n-1 indices have all run
			return
		}
		if done.Add(1) == n-1 {
			close(rest)
		}
	})
	if done.Load() != n-1 {
		t.Fatalf("pool returned with %d of %d non-stalled indices run", done.Load(), n-1)
	}
}

// TestForEachDeterministicWithDerivedStreams is the engine's determinism
// contract in miniature: trials that derive their randomness from
// (seed, index) — never from a shared generator — produce the same result
// vector on every run, concurrent or not.
func TestForEachDeterministicWithDerivedStreams(t *testing.T) {
	run := func() []uint64 {
		out := make([]uint64, 64)
		if err := ForEach(len(out), func(i int) error {
			r := rng.New(2006 ^ uint64(i)*0x9e3779b97f4a7c15)
			for k := 0; k < 100; k++ {
				out[i] += r.Uint64()
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("index %d differs across runs", i)
		}
	}
}
