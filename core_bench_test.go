// End-to-end simulation-core benchmarks: one full Bulk run per iteration
// for each of the three runtimes (TM, TLS, checkpointed multiprocessor).
//
// Unlike the per-exhibit benchmarks in bench_test.go — which time workload
// generation, several schemes, verification, and aggregation together —
// these isolate the simulation core's hot paths (cache walks, signature
// expansion, commit broadcast, write-buffer and memory-image accesses), so
// optimizations to the core show up undiluted. They are developer tools
// with no committed record: scripts/check.sh runs each once as a smoke
// test, and the repository's performance numbers come from cmd/bulkbench.
package bulk_test

import (
	"testing"

	"bulk/internal/ckpt"
	"bulk/internal/tls"
	"bulk/internal/tm"
	"bulk/internal/workload"
)

// coreTMWorkload is a fixed, mid-sized TM workload: the "lu" profile has
// the largest read footprint of Table 7, so commits broadcast substantial
// write signatures and receivers do real expansion work.
func coreTMWorkload(b *testing.B) *workload.TMWorkload {
	b.Helper()
	p, ok := workload.TMProfileByName("lu")
	if !ok {
		b.Fatal("TM profile lu not found")
	}
	p.TxnsPerThread = 12
	return workload.GenerateTM(p, 1)
}

// BenchmarkTMRun times one complete Bulk TM simulation.
func BenchmarkTMRun(b *testing.B) {
	w := coreTMWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tm.Run(w, tm.NewOptions(tm.Bulk)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTMRunWord times the word-granularity Bulk TM mode (Section 4.4
// merges and the Updated Word Bitmask path).
func BenchmarkTMRunWord(b *testing.B) {
	w := coreTMWorkload(b)
	opts := tm.NewOptions(tm.Bulk)
	opts.WordGranularity = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tm.Run(w, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTLSRun times one complete Bulk TLS simulation: "crafty" carries
// the largest per-task read footprint of Table 6.
func BenchmarkTLSRun(b *testing.B) {
	p, ok := workload.TLSProfileByName("crafty")
	if !ok {
		b.Fatal("TLS profile crafty not found")
	}
	p.Tasks = 120
	w := workload.GenerateTLS(p, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tls.Run(w, tls.NewOptions(tls.Bulk)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCkptRun times one complete Bulk checkpointed-multiprocessor
// simulation.
func BenchmarkCkptRun(b *testing.B) {
	w := ckpt.GenerateWorkload(4, 40, 0.9, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ckpt.Run(w, ckpt.NewOptions(ckpt.Bulk)); err != nil {
			b.Fatal(err)
		}
	}
}
