package lint

import "testing"

// parFixture is the minimal internal/par package the capturesafe rule
// discovers worker entry points against.
const parFixture = `package par

func ForEach(n int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

func Each(n, w int, fn func(worker, i int)) {
	for i := 0; i < n; i++ {
		fn(0, i)
	}
}
`

// TestCaptureSafeUnguardedEachWrite: an unguarded captured write in a
// par.Each body — exactly one finding at the write line.
func TestCaptureSafeUnguardedEachWrite(t *testing.T) {
	findings := lintFixture(t, map[string]string{
		"internal/par/par.go": parFixture,
		"internal/scratch/s.go": `package scratch

import "bulk/internal/par"

func Sum(xs []int) int {
	total := 0
	par.Each(len(xs), 4, func(w, i int) {
		total += xs[i]
	})
	return total
}
`,
	})
	wantFinding(t, findings, "capturesafe", "internal/scratch/s.go", 8)
}

func TestCaptureSafeIndexLanded(t *testing.T) {
	// Index-landed results and closure-local temporaries are the sanctioned
	// fan-out shape: no findings.
	findings := lintFixture(t, map[string]string{
		"internal/par/par.go": parFixture,
		"internal/scratch/s.go": `package scratch

import "bulk/internal/par"

type row struct {
	sum int
}

func Rows(xs []int) []row {
	out := make([]row, len(xs))
	err := par.ForEach(len(xs), func(i int) error {
		acc := xs[i] * 2
		out[i] = row{sum: acc}
		out[i].sum++
		return nil
	})
	_ = err
	return out
}
`,
	})
	wantNoFinding(t, findings, "capturesafe")
}

func TestCaptureSafeLockGuarded(t *testing.T) {
	// A write under a held mutex is clean; the same write before Lock is a
	// finding — the rule is flow-sensitive, not grep-shaped.
	findings := lintFixture(t, map[string]string{
		"internal/par/par.go": parFixture,
		"internal/scratch/s.go": `package scratch

import (
	"sync"

	"bulk/internal/par"
)

func Tally(xs []int) int {
	var mu sync.Mutex
	total := 0
	par.Each(len(xs), 4, func(w, i int) {
		mu.Lock()
		total += xs[i]
		mu.Unlock()
	})
	return total
}
`,
	})
	wantNoFinding(t, findings, "capturesafe")
}

func TestCaptureSafeWriteBeforeLock(t *testing.T) {
	findings := lintFixture(t, map[string]string{
		"internal/par/par.go": parFixture,
		"internal/scratch/s.go": `package scratch

import (
	"sync"

	"bulk/internal/par"
)

func Tally(xs []int) int {
	var mu sync.Mutex
	total := 0
	par.Each(len(xs), 4, func(w, i int) {
		total += xs[i]
		mu.Lock()
		mu.Unlock()
	})
	return total
}
`,
	})
	wantFinding(t, findings, "capturesafe", "internal/scratch/s.go", 13)
}

func TestCaptureSafeGoStatement(t *testing.T) {
	// go-statement bodies are workers too; a captured map write is a
	// finding (concurrent map writes fault), an index-landed slice write is
	// not.
	findings := lintFixture(t, map[string]string{
		"internal/scratch/s.go": `package scratch

import "sync"

func Fan(n int) map[int]int {
	m := map[int]int{}
	out := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = i * i
			m[i] = i * i
		}(i)
	}
	wg.Wait()
	return m
}
`,
	})
	wantFinding(t, findings, "capturesafe", "internal/scratch/s.go", 14)
}

func TestCaptureSafeWaiver(t *testing.T) {
	findings := lintFixture(t, map[string]string{
		"internal/par/par.go": parFixture,
		"internal/scratch/s.go": `package scratch

import "bulk/internal/par"

func Last(xs []int) int {
	last := 0
	par.ForEach(len(xs), func(i int) error {
		last = xs[i] //bulklint:allow capturesafe single-worker pool in this build
		return nil
	})
	return last
}
`,
	})
	wantNoFinding(t, findings, "capturesafe")
	wantNoFinding(t, findings, "stalewaiver")
}

func TestCaptureSafePointerStyleAtomic(t *testing.T) {
	// A pointer-style sync/atomic call is a finding wherever it is; typed
	// atomics are clean.
	findings := lintFixture(t, map[string]string{
		"internal/scratch/s.go": `package scratch

import "sync/atomic"

type Counter struct {
	n    int64
	typed atomic.Int64
}

func (c *Counter) Inc() {
	atomic.AddInt64(&c.n, 1)
	c.typed.Add(1)
}
`,
	})
	wantFinding(t, findings, "capturesafe", "internal/scratch/s.go", 11)
}
