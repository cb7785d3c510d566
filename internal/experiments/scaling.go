package experiments

import (
	"fmt"
	"io"

	"bulk/internal/par"
	"bulk/internal/stats"
	"bulk/internal/tls"
	"bulk/internal/tm"
	"bulk/internal/workload"
)

// ScalingRow is one processor count's measurements.
type ScalingRow struct {
	Procs int
	// TLS: geomean speedup over sequential across the SPECint profiles.
	TLSBulk float64
	// TM: geomean speedup of Bulk over 1-thread-per-app ... TM speedup is
	// reported relative to the same thread count under Lazy, isolating
	// the signature cost as the machine grows.
	TMBulkOverLazy float64
	// TLS squash rate per committed task (contention grows with procs).
	TLSSquashPerTask float64
}

// ScalingResult is the processor-count sweep — an extension beyond the
// paper's fixed 4-processor TLS / 8-processor TM machines. Two questions:
// does Bulk's signature inexactness compound as more threads disambiguate
// against each commit, and how does TLS speedup scale under the in-order
// commit constraint?
type ScalingResult struct {
	Rows []ScalingRow
}

// Scaling runs the sweep over 2..16 processors. The processor counts are
// independent simulations (each worker generates its own workloads from
// the shared seed), so they fan out through par.ForEach; rows land by
// index, keeping the printed output identical to a sequential sweep. This
// was the prototype for the engine-wide pattern now in internal/par.
func Scaling(c Config) (*ScalingResult, error) {
	tlsApps := []string{"bzip2", "gap", "twolf", "vpr"}
	tmApps := []string{"cb", "mc", "series"}
	procCounts := []int{2, 4, 8, 16}

	res := &ScalingResult{Rows: make([]ScalingRow, len(procCounts))}
	err := par.ForEach(len(procCounts), func(i int) error {
		row, err := scalingRow(c, procCounts[i], tlsApps, tmApps)
		if err != nil {
			return err
		}
		res.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// scalingRow measures one processor count.
func scalingRow(c Config, procs int, tlsApps, tmApps []string) (ScalingRow, error) {
	row := ScalingRow{Procs: procs}

	var sp, sq []float64
	for _, app := range tlsApps {
		p, _ := workload.TLSProfileByName(app)
		w := c.tlsWorkload(p)
		seq, err := tls.RunSequential(w)
		if err != nil {
			return row, err
		}
		o := tls.NewOptions(tls.Bulk)
		o.Procs = procs
		r, err := c.runTLS(w, o)
		if err != nil {
			return row, err
		}
		sp = append(sp, float64(seq)/float64(r.Stats.Cycles))
		sq = append(sq, float64(r.Stats.Squashes)/float64(r.Stats.Commits))
	}
	row.TLSBulk = stats.GeoMean(sp)
	row.TLSSquashPerTask = stats.Mean(sq)

	var tmRatios []float64
	for _, app := range tmApps {
		p, _ := workload.TMProfileByName(app)
		p.Threads = procs
		w := c.tmWorkload(p)
		lazy, err := c.runTM(w, tm.NewOptions(tm.Lazy))
		if err != nil {
			return row, err
		}
		bulk, err := c.runTM(w, tm.NewOptions(tm.Bulk))
		if err != nil {
			return row, err
		}
		tmRatios = append(tmRatios, float64(lazy.Stats.Cycles)/float64(bulk.Stats.Cycles))
	}
	row.TMBulkOverLazy = stats.GeoMean(tmRatios)
	return row, nil
}

// Print renders the sweep.
func (r *ScalingResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Extension: processor-count scaling")
	t := stats.NewTable("Procs", "TLS Bulk speedup", "TLS squashes/task", "TM Bulk/Lazy")
	for _, row := range r.Rows {
		t.Row(row.Procs, row.TLSBulk, row.TLSSquashPerTask, row.TMBulkOverLazy)
	}
	t.Render(w)
	fmt.Fprintln(w, "TM Bulk/Lazy near 1.0 at every size means signature inexactness does")
	fmt.Fprintln(w, "not compound with machine size; TLS speedup saturates as the in-order")
	fmt.Fprintln(w, "commit token and cross-task dependences serialize the pipeline.")
}
