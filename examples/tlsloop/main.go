// tlsloop: speculative parallelization of a sequential loop with occasional
// cross-iteration dependences — the TLS setting of the paper.
//
// Each loop iteration becomes a task: it reads a few global inputs, reads
// live-ins its predecessor produced before spawning it, sometimes reads a
// value the predecessor computes late (a true dependence that must squash),
// and writes its own output buffer. The example compares Bulk with and
// without Partial Overlap against the sequential baseline, and verifies
// that the committed memory equals the sequential execution exactly.
//
// Run with: go run ./examples/tlsloop
package main

import (
	"fmt"
	"os"

	"bulk/internal/tls"
	"bulk/internal/trace"
	"bulk/internal/workload"
)

// buildLoop hand-constructs the task sequence: iteration i writes 8 words
// at its output buffer, the first 4 before spawning iteration i+1 (live-ins
// for it); every third iteration also reads a late-written word of its
// predecessor (a real dependence).
func buildLoop(iters int) *workload.TLSWorkload {
	w := &workload.TLSWorkload{Name: "loop"}
	out := func(i int) uint64 { return 1<<24 + workload.Scatter(i, 1<<20) }
	for i := 0; i < iters; i++ {
		var ops []trace.Op
		// Live-ins: first 4 words of the predecessor's buffer.
		if i > 0 {
			for k := 0; k < 4; k++ {
				ops = append(ops, trace.Op{Kind: trace.Read, Addr: out(i-1) + uint64(k), Think: 2})
			}
		}
		// A true dependence on the predecessor's late value, every 3rd task.
		if i > 0 && i%3 == 0 {
			ops = append(ops, trace.Op{Kind: trace.Read, Addr: out(i-1) + 7, Think: 2})
		}
		// Global inputs.
		for k := 0; k < 6; k++ {
			ops = append(ops, trace.Op{Kind: trace.Read, Addr: workload.Scatter(i*7+k, 1<<20), Think: 3})
		}
		// Pre-spawn outputs (the next task's live-ins).
		for k := 0; k < 4; k++ {
			ops = append(ops, trace.Op{Kind: trace.WriteDep, Addr: out(i) + uint64(k), Think: 2})
		}
		spawn := len(ops) - 1
		// Post-spawn compute and outputs.
		for k := 0; k < 8; k++ {
			ops = append(ops, trace.Op{Kind: trace.Read, Addr: workload.Scatter(i*13+k+100, 1<<20), Think: 4})
		}
		for k := 4; k < 8; k++ {
			ops = append(ops, trace.Op{Kind: trace.WriteDep, Addr: out(i) + uint64(k), Think: 2})
		}
		w.Tasks = append(w.Tasks, workload.TLSTask{Ops: ops, SpawnIndex: spawn})
	}
	return w
}

func main() {
	w := buildLoop(120)
	seq, err := tls.RunSequential(w)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("loop of %d iterations; sequential baseline: %d cycles\n\n", len(w.Tasks), seq)

	run := func(label string, opts tls.Options) {
		r, err := tls.Run(w, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, label, err)
			os.Exit(1)
		}
		if err := tls.Verify(w, r); err != nil {
			fmt.Fprintln(os.Stderr, "VERIFY FAILED:", err)
			os.Exit(1)
		}
		fmt.Printf("%-22s speedup=%.2f squashes=%3d (false=%d, cascaded=%d) merges=%d  [sequential semantics ✓]\n",
			label, float64(seq)/float64(r.Stats.Cycles), r.Stats.Squashes,
			r.Stats.FalseSquashes, r.Stats.CascadeSquashes, r.Stats.Merges)
	}

	run("Eager", tls.NewOptions(tls.Eager))
	run("Lazy", tls.NewOptions(tls.Lazy))
	run("Bulk", tls.NewOptions(tls.Bulk))
	noOv := tls.NewOptions(tls.Bulk)
	noOv.PartialOverlap = false
	run("Bulk (no overlap)", noOv)

	fmt.Println("\nWithout Partial Overlap every iteration is squashed when its parent")
	fmt.Println("commits, because it read the parent's pre-spawn live-ins; the shadow")
	fmt.Println("write signature (Section 6.3) removes exactly those squashes.")
}
