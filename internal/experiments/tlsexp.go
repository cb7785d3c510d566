package experiments

import (
	"fmt"
	"io"

	"bulk/internal/par"
	"bulk/internal/stats"
	"bulk/internal/tls"
	"bulk/internal/workload"
)

// Figure10Row is one application's bar group in Figure 10: speedups over
// sequential execution.
type Figure10Row struct {
	App           string
	Eager         float64
	Lazy          float64
	Bulk          float64
	BulkNoOverlap float64
}

// Figure10Result reproduces Figure 10.
type Figure10Result struct {
	Rows    []Figure10Row
	GeoMean Figure10Row
}

// Figure10 runs the four TLS schemes on every SPECint profile and reports
// speedups over the sequential baseline.
func Figure10(c Config) (*Figure10Result, error) {
	profiles := workload.TLSProfiles()
	res := &Figure10Result{Rows: make([]Figure10Row, len(profiles))}
	// Each application is an independent simulation of a workload that is a
	// pure function of (profile, seed), so the apps fan out and their rows
	// land by index; the geometric means are folded afterwards in row order.
	err := par.ForEach(len(profiles), func(i int) error {
		p := profiles[i]
		w := c.tlsWorkload(p)
		seq, err := tls.RunSequential(w)
		if err != nil {
			return err
		}
		row := Figure10Row{App: p.Name}
		for _, run := range []struct {
			dst  *float64
			opts tls.Options
		}{
			{&row.Eager, tls.NewOptions(tls.Eager)},
			{&row.Lazy, tls.NewOptions(tls.Lazy)},
			{&row.Bulk, tls.NewOptions(tls.Bulk)},
			{&row.BulkNoOverlap, func() tls.Options {
				o := tls.NewOptions(tls.Bulk)
				o.PartialOverlap = false
				return o
			}()},
		} {
			r, err := c.runTLS(w, run.opts)
			if err != nil {
				return err
			}
			*run.dst = float64(seq) / float64(r.Stats.Cycles)
		}
		res.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	var e, l, b, bn []float64
	for _, row := range res.Rows {
		e = append(e, row.Eager)
		l = append(l, row.Lazy)
		b = append(b, row.Bulk)
		bn = append(bn, row.BulkNoOverlap)
	}
	res.GeoMean = Figure10Row{
		App:           "Geo.Mean",
		Eager:         stats.GeoMean(e),
		Lazy:          stats.GeoMean(l),
		Bulk:          stats.GeoMean(b),
		BulkNoOverlap: stats.GeoMean(bn),
	}
	return res, nil
}

// Print renders the figure as a table of speedups plus the bar chart.
func (r *Figure10Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 10: TLS speedup over sequential execution (4 processors)")
	t := stats.NewTable("App", "Eager", "Lazy", "Bulk", "BulkNoOverlap")
	for _, row := range r.Rows {
		t.Row(row.App, row.Eager, row.Lazy, row.Bulk, row.BulkNoOverlap)
	}
	t.Row(r.GeoMean.App, r.GeoMean.Eager, r.GeoMean.Lazy, r.GeoMean.Bulk, r.GeoMean.BulkNoOverlap)
	t.Render(w)
	fmt.Fprintln(w)
	ch := stats.NewChart("Eager", "Lazy", "Bulk", "BulkNoOvl")
	for _, row := range append(r.Rows, r.GeoMean) {
		ch.Row(row.App, row.Eager, row.Lazy, row.Bulk, row.BulkNoOverlap)
	}
	ch.Render(w)
}

// Table6Row is one application's row of Table 6.
type Table6Row struct {
	App        string
	RdSetWords float64
	WrSetWords float64
	DepWords   float64
	FalseSqPct float64
	FalseInv   float64
	SafeWB     float64
	WrWrPer1k  float64
}

// Table6Result reproduces Table 6: the characterization of Bulk in TLS.
type Table6Result struct {
	Rows []Table6Row
	Avg  Table6Row
}

// Table6 runs Bulk on each TLS profile and extracts the characterization
// counters.
func Table6(c Config) (*Table6Result, error) {
	profiles := workload.TLSProfiles()
	res := &Table6Result{Rows: make([]Table6Row, len(profiles))}
	err := par.ForEach(len(profiles), func(i int) error {
		p := profiles[i]
		w := c.tlsWorkload(p)
		r, err := c.runTLS(w, tls.NewOptions(tls.Bulk))
		if err != nil {
			return err
		}
		res.Rows[i] = Table6Row{
			App:        p.Name,
			RdSetWords: r.AvgReadSetWords(),
			WrSetWords: r.AvgWriteSetWords(),
			DepWords:   r.AvgDepSetWords(),
			FalseSqPct: r.FalseSquashPct(),
			FalseInv:   r.FalseInvPerCommit(),
			SafeWB:     r.SafeWBPerTask(),
			WrWrPer1k:  r.WrWrPer1kTasks(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := float64(len(res.Rows))
	res.Avg.App = "Avg"
	for _, row := range res.Rows {
		res.Avg.RdSetWords += row.RdSetWords / n
		res.Avg.WrSetWords += row.WrSetWords / n
		res.Avg.DepWords += row.DepWords / n
		res.Avg.FalseSqPct += row.FalseSqPct / n
		res.Avg.FalseInv += row.FalseInv / n
		res.Avg.SafeWB += row.SafeWB / n
		res.Avg.WrWrPer1k += row.WrWrPer1k / n
	}
	return res, nil
}

// Print renders Table 6.
func (r *Table6Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Table 6: Characterization of Bulk in TLS")
	t := stats.NewTable("App", "RdSet(W)", "WrSet(W)", "DepSet(W)", "Sq(%)", "FalseInv/Com", "SafeWB/Tsk", "WrWr/1kTsk")
	for _, row := range append(r.Rows, r.Avg) {
		t.Row(row.App, row.RdSetWords, row.WrSetWords, row.DepWords,
			row.FalseSqPct, row.FalseInv, row.SafeWB, row.WrWrPer1k)
	}
	t.Render(w)
}

// GranularityRow compares word- vs line-granularity Bulk signatures.
type GranularityRow struct {
	App         string
	WordSpeedup float64
	LineSpeedup float64
	WordSquash  uint64
	LineSquash  uint64
}

// GranularityResult is the word-vs-line ablation (the motivation for
// Section 4.4's fine-grain disambiguation).
type GranularityResult struct {
	Rows []GranularityRow
}

// AblationGranularity runs Bulk TLS at word and line signature granularity.
func AblationGranularity(c Config) (*GranularityResult, error) {
	profiles := workload.TLSProfiles()
	res := &GranularityResult{Rows: make([]GranularityRow, len(profiles))}
	err := par.ForEach(len(profiles), func(i int) error {
		p := profiles[i]
		w := c.tlsWorkload(p)
		seq, err := tls.RunSequential(w)
		if err != nil {
			return err
		}
		word, err := c.runTLS(w, tls.NewOptions(tls.Bulk))
		if err != nil {
			return err
		}
		lo := tls.NewOptions(tls.Bulk)
		lo.LineGranularity = true
		line, err := c.runTLS(w, lo)
		if err != nil {
			return err
		}
		res.Rows[i] = GranularityRow{
			App:         p.Name,
			WordSpeedup: float64(seq) / float64(word.Stats.Cycles),
			LineSpeedup: float64(seq) / float64(line.Stats.Cycles),
			WordSquash:  word.Stats.Squashes,
			LineSquash:  line.Stats.Squashes,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Print renders the granularity ablation.
func (r *GranularityResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Ablation: TLS signature granularity (word vs line)")
	t := stats.NewTable("App", "Word speedup", "Line speedup", "Word squashes", "Line squashes")
	for _, row := range r.Rows {
		t.Row(row.App, row.WordSpeedup, row.LineSpeedup, row.WordSquash, row.LineSquash)
	}
	t.Render(w)
}
