package experiments

import (
	"fmt"
	"io"

	"bulk/internal/par"
	"bulk/internal/stats"
	"bulk/internal/tm"
	"bulk/internal/trace"
	"bulk/internal/workload"
)

// WordTMRow compares line- and word-granularity Bulk TM at one degree of
// line packing.
type WordTMRow struct {
	// SlotsPerLine is how many threads' counters share one cache line
	// (1 = no false sharing possible).
	SlotsPerLine int
	LineSquashes uint64
	WordSquashes uint64
	LineCycles   int64
	WordCycles   int64
	WordMerges   uint64
}

// WordTMResult is the word-granularity TM extension (Section 4.4 applied
// to transactions): threads update disjoint words packed into shared
// lines. Line-granularity signatures see false sharing and squash; word
// granularity commits conflict-free, merging partially-updated lines.
type WordTMResult struct {
	Rows []WordTMRow
}

// wordTMWorkload builds packed-counter transactions: each of 8 threads
// read-modify-writes its own slot in a set of shared counter lines, with
// slotsPerLine threads sharing each line.
func wordTMWorkload(slotsPerLine, txns int, seed uint64) *workload.TMWorkload {
	const threads = 8
	w := &workload.TMWorkload{Name: fmt.Sprintf("packed-%d", slotsPerLine), Threads: make([]workload.TMThread, threads)}
	for t := range w.Threads {
		segs := make([]workload.TMSegment, txns)
		for i := range segs {
			ops := make([]trace.Op, 0, 2*3+6) // three counter RMWs, six private reads
			for c := 0; c < 3; c++ {
				lineIdx := uint64((t/slotsPerLine)*3 + c)
				slot := uint64(t % slotsPerLine)
				word := lineIdx*workload.WordsPerLine + slot
				ops = append(ops,
					trace.Op{Kind: trace.Read, Addr: word, Think: 2},
					trace.Op{Kind: trace.WriteDep, Addr: word, Think: 2},
				)
			}
			for k := 0; k < 6; k++ {
				ops = append(ops, trace.Op{
					Kind:  trace.Read,
					Addr:  workload.TMPrivateHeapLine(t, uint64(int(seed)+i*16+k)) * workload.WordsPerLine,
					Think: 3,
				})
			}
			segs[i] = workload.TMSegment{Txn: true, Ops: ops, Sections: []int{0}}
		}
		w.Threads[t].Segments = segs
	}
	return w
}

// WordTM runs the packing sweep.
func WordTM(c Config) (*WordTMResult, error) {
	txns := 12
	if c.TMTxns > 0 {
		txns = c.TMTxns * 2
	}
	slotCounts := []int{1, 2, 4, 8}
	res := &WordTMResult{Rows: make([]WordTMRow, len(slotCounts))}
	// Each packing degree builds its own workload (pure in slots/txns/seed),
	// so the sweep fans out with rows landing by index.
	err := par.ForEach(len(slotCounts), func(i int) error {
		slots := slotCounts[i]
		w := wordTMWorkload(slots, txns, c.Seed)
		line, err := c.runTM(w, tm.NewOptions(tm.Bulk))
		if err != nil {
			return err
		}
		wo := tm.NewOptions(tm.Bulk)
		wo.WordGranularity = true
		word, err := c.runTM(w, wo)
		if err != nil {
			return err
		}
		res.Rows[i] = WordTMRow{
			SlotsPerLine: slots,
			LineSquashes: line.Stats.Squashes,
			WordSquashes: word.Stats.Squashes,
			LineCycles:   line.Stats.Cycles,
			WordCycles:   word.Stats.Cycles,
			WordMerges:   word.Stats.Merges,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Print renders the sweep.
func (r *WordTMResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Extension: word-granularity TM on packed shared counters (8 threads)")
	t := stats.NewTable("Slots/line", "Line squashes", "Word squashes", "Line cycles", "Word cycles", "Word merges")
	for _, row := range r.Rows {
		t.Row(row.SlotsPerLine, row.LineSquashes, row.WordSquashes,
			row.LineCycles, row.WordCycles, row.WordMerges)
	}
	t.Render(w)
	fmt.Fprintln(w, "As more threads' counters pack into one line, line-granularity Bulk")
	fmt.Fprintln(w, "squashes on false sharing; word granularity stays conflict-free and")
	fmt.Fprintln(w, "merges partially-updated lines (Section 4.4) — with no cache changes.")
}
