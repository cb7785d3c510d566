// End-to-end simulation-core benchmarks: one full Bulk run per iteration
// for each of the three runtimes (TM, TLS, checkpointed multiprocessor).
//
// Unlike the per-exhibit benchmarks in bench_test.go — which time workload
// generation, several schemes, verification, and aggregation together —
// these isolate the simulation core's hot paths (cache walks, signature
// expansion, commit broadcast, write-buffer and memory-image accesses), so
// optimizations to the core show up undiluted. BenchmarkGenerate times the
// layer under them: building the inputs. They are developer tools
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

// luProfile is a fixed, mid-sized TM profile: "lu" has the largest read
// footprint of Table 7, so commits broadcast substantial write signatures
// and receivers do real expansion work.
func luProfile(tb testing.TB) workload.TMProfile {
	tb.Helper()
	p, ok := workload.TMProfileByName("lu")
	if !ok {
		tb.Fatal("TM profile lu not found")
	}
	p.TxnsPerThread = 12
	return p
}

// craftyProfile is a fixed TLS profile: "crafty" carries the largest
// per-task read footprint of Table 6.
func craftyProfile(tb testing.TB) workload.TLSProfile {
	tb.Helper()
	p, ok := workload.TLSProfileByName("crafty")
	if !ok {
		tb.Fatal("TLS profile crafty not found")
	}
	p.Tasks = 120
	return p
}

// coreTMWorkload is the lu workload the TM run benchmarks simulate.
func coreTMWorkload(b *testing.B) *workload.TMWorkload {
	return workload.GenerateTM(luProfile(b), 1)
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

// BenchmarkTLSRun times one complete Bulk TLS simulation of crafty.
func BenchmarkTLSRun(b *testing.B) {
	w := workload.GenerateTLS(craftyProfile(b), 1)
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

// BenchmarkGenerate times the workload generators on the inputs the
// benchmarks above run: one generated workload per iteration. Run it with
// -benchmem; the allocation bound in noalloc_test.go pins its allocations.
func BenchmarkGenerate(b *testing.B) {
	lu, crafty := luProfile(b), craftyProfile(b)
	b.Run("tm-lu", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			workload.GenerateTM(lu, uint64(i))
		}
	})
	b.Run("tls-crafty", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			workload.GenerateTLS(crafty, uint64(i))
		}
	})
	b.Run("ckpt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ckpt.GenerateWorkload(8, 10, 0.92, uint64(i))
		}
	})
}
