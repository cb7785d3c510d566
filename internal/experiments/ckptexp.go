package experiments

import (
	"fmt"
	"io"

	"bulk/internal/ckpt"
	"bulk/internal/par"
	"bulk/internal/sig"
	"bulk/internal/stats"
)

// CheckpointRow is one signature configuration's row in the
// checkpointed-multiprocessor extension experiment.
type CheckpointRow struct {
	Config         string
	Bits           int
	Speedup        float64 // over the stall baseline
	Rollbacks      uint64
	FalseRollbacks uint64
}

// CheckpointResult is the extension experiment for the third environment
// the paper's introduction lists: checkpointed multiprocessors. Episodes
// speculate past long-latency loads under value prediction; signatures
// provide the disambiguation and rollback machinery. The experiment
// reports speedup over a never-speculate baseline for exact disambiguation
// and for Bulk signatures of several sizes.
type CheckpointResult struct {
	StallCycles int64
	Exact       CheckpointRow
	Rows        []CheckpointRow
}

// Checkpoint runs the checkpointed-multiprocessor comparison.
func Checkpoint(c Config) (*CheckpointResult, error) {
	episodes := 20
	if c.TMTxns > 0 {
		episodes = c.TMTxns * 2
	}
	sigNames := []string{"S1", "S4", "S14", "S19"}
	// Six independent simulations (stall, exact, four signature sizes) of
	// one workload, generated once: ckpt.Run and ckpt.Verify only read it,
	// so the runs share it and fan out. Speedups over the stall baseline
	// are computed after the barrier, once the baseline's cycle count is
	// known.
	w := ckpt.GenerateWorkload(8, episodes, 0.92, c.Seed)
	type ckptOut struct {
		cycles         int64
		rollbacks      uint64
		falseRollbacks uint64
		bits           int
	}
	runs := make([]ckptOut, 2+len(sigNames))
	err := par.ForEach(len(runs), func(i int) error {
		var o ckpt.Options
		name := ""
		switch i {
		case 0:
			o = ckpt.NewOptions(ckpt.Stall)
		case 1:
			o = ckpt.NewOptions(ckpt.Exact)
		default:
			name = sigNames[i-2]
			cfg, err := sig.StandardConfig(name, sig.TMPermutation, sig.TMAddrBits)
			if err != nil {
				return err
			}
			o = ckpt.NewOptions(ckpt.Bulk)
			o.SigConfig = cfg
			runs[i].bits = cfg.TotalBits()
		}
		o.CacheMeter = c.CacheMeter
		r, err := ckpt.Run(w, o)
		if err != nil {
			return err
		}
		if c.Verify {
			if err := ckpt.Verify(w, r); err != nil {
				if name != "" {
					return fmt.Errorf("%s: %w", name, err)
				}
				return err
			}
		}
		runs[i].cycles = r.Stats.Cycles
		runs[i].rollbacks = r.Stats.Rollbacks
		runs[i].falseRollbacks = r.Stats.FalseRollbacks
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &CheckpointResult{StallCycles: runs[0].cycles}
	res.Exact = CheckpointRow{
		Config:    "Exact",
		Speedup:   float64(runs[0].cycles) / float64(runs[1].cycles),
		Rollbacks: runs[1].rollbacks,
	}
	for i, name := range sigNames {
		r := runs[i+2]
		res.Rows = append(res.Rows, CheckpointRow{
			Config:         name,
			Bits:           r.bits,
			Speedup:        float64(runs[0].cycles) / float64(r.cycles),
			Rollbacks:      r.rollbacks,
			FalseRollbacks: r.falseRollbacks,
		})
	}
	return res, nil
}

// Print renders the experiment.
func (r *CheckpointResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Extension: checkpointed multiprocessor (speculation past long-latency loads)")
	fmt.Fprintf(w, "stall baseline: %d cycles\n", r.StallCycles)
	t := stats.NewTable("Disambiguation", "Bits", "Speedup vs stall", "Rollbacks", "False rollbacks")
	t.Row(r.Exact.Config, "-", r.Exact.Speedup, r.Exact.Rollbacks, r.Exact.FalseRollbacks)
	for _, row := range r.Rows {
		t.Row(row.Config, row.Bits, row.Speedup, row.Rollbacks, row.FalseRollbacks)
	}
	t.Render(w)
}
