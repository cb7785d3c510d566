// Schedule-exploration throughput benchmarks: one full medium-budget
// exploration of each sweep target per iteration, swept across explorer
// worker counts. Checker throughput — schedules judged per second — is the
// binding constraint on how deep the model checker can look into a
// protocol's schedule space, so it is a first-class performance metric
// next to the core run benchmarks. The w1 case is the serial explorer;
// w2/w4/w8 exercise the worker pool (their reports are asserted
// identical in internal/check's tests, so here only throughput differs).
// They are developer tools with no committed record: scripts/check.sh runs
// the tm-sweep w1 and w4 cases once as a smoke test, and cmd/bulkbench's
// check-small workload is the measured record of explorer throughput.
package bulk_test

import (
	"fmt"
	"testing"

	"bulk/internal/check"
)

func BenchmarkCheckExplore(b *testing.B) {
	for _, tgt := range check.SweepTargets() {
		tgt := tgt
		for _, workers := range []int{1, 2, 4, 8} {
			workers := workers
			b.Run(fmt.Sprintf("%s/w%d", tgt.Name(), workers), func(b *testing.B) {
				budget := check.MediumBudget()
				total := 0
				for i := 0; i < b.N; i++ {
					rep := check.ExploreParallel(tgt, 0, budget, workers)
					if rep.Failure != nil {
						b.Fatalf("oracle rejected schedule %s: %s",
							check.FormatSchedule(rep.Failure.Schedule), rep.Failure.Reason)
					}
					total += rep.Schedules
				}
				b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sched/s")
			})
		}
	}
}
