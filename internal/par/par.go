// Package par is the deterministic bounded fan-out engine behind the
// experiment harness and the model checker's explorer. Independent
// trials — rows of a table, bars of a figure, processor counts of a sweep,
// schedules of an explorer wave — run concurrently on a bounded pool of
// workers, and every result lands in a slot chosen by its index, never by
// completion order. Combined with the repository's seeding discipline
// (each trial derives everything it needs from the shared seed and its own
// index, sharing no generator state with its siblings), this makes the
// concurrent schedule unobservable: printed exhibits are byte-identical to
// a serial run, which is what the golden determinism tests in
// internal/experiments assert.
//
// This is the pattern the scaling sweep proved out with hand-rolled
// goroutines, promoted to shared infrastructure:
//
//   - results land by index (no channels, no completion-order effects);
//   - errors land by index too, and the lowest-index error wins, so the
//     reported failure is the one a serial loop would have hit first;
//   - worker count is bounded by GOMAXPROCS unless the caller asks for a
//     count, so a 23-configuration sweep does not spawn 23 unbounded
//     goroutines on a 2-core CI box.
//
// Shared mutable state is the caller's responsibility: the only values a
// trial may touch are its own slot, its worker's scratch, and explicitly
// synchronized aggregators (bus.Meter is the sanctioned one).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the number of workers Each runs n tasks on when asked
// for w: w when positive, GOMAXPROCS otherwise, never more than n and
// never less than 1.
func Workers(w, n int) int {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(1, min(w, n))
}

// Each runs fn(worker, i) for every i in [0, n) on Workers(w, n) workers
// and blocks until every call has returned. Workers claim indices one at
// a time from a shared counter, so a slow index holds up only the worker
// running it. worker is the claiming worker's id in [0, Workers(w, n)),
// so callers can keep per-worker scratch without synchronization; every
// index is claimed exactly once, so fn may write index-i state freely.
// Under that contract the caller's reduction over the results is
// identical to the serial loop `for i := 0; i < n; i++`, whatever the
// worker count or claim order.
//
// With one worker the pool is bypassed: fn runs inline on the calling
// goroutine, so a single-worker caller pays no synchronization at all.
func Each(n, w int, fn func(worker, i int)) {
	w = Workers(w, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(k, i)
			}
		}()
	}
	wg.Wait()
}

// ForEach runs fn(i) for every i in [0, n) on Each's pool at GOMAXPROCS
// workers and blocks until all calls return. fn must write its result
// only into index-i state — under that contract the output of a
// ForEach-based computation is identical to the serial loop.
//
// Every fn(i) is invoked even after another index has failed (trials are
// independent; there is nothing to cancel), and the error returned is the
// one with the lowest index — the failure a serial run would report.
func ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	Each(n, 0, func(_, i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
