package serve

import (
	"bytes"
	"fmt"
	"io"

	"bulk/internal/bus"
	"bulk/internal/cache"
	"bulk/internal/check"
	"bulk/internal/experiments"
)

// This file owns the exact output formats of the one-shot CLIs. Both
// cmd/bulksim (-notime) and cmd/bulkcheck delegate their rendering here,
// and the daemon assembles job results from the same functions — so the
// acceptance claim "daemon responses are byte-identical to the one-shot
// CLI outputs" holds by construction, and the e2e diff tests plus the
// check.sh smoke gate pin it against drift.

// ExhibitTrailer is the status line bulksim prints after each exhibit's
// output. secs < 0 omits the wall-time field: that is the deterministic
// form (-notime and every daemon response).
func ExhibitTrailer(id string, secs float64, verified bool) string {
	if secs < 0 {
		return fmt.Sprintf("[%s: verified=%v]\n", id, verified)
	}
	return fmt.Sprintf("[%s: %.1fs, verified=%v]\n", id, secs, verified)
}

// MeterSummary is bulksim's cross-simulation bus-traffic trailer. Empty
// when no simulations ran; the totals are order-independent sums, so the
// line is deterministic however the runs interleaved.
func MeterSummary(total bus.Bandwidth, runs int) string {
	if runs == 0 {
		return ""
	}
	return fmt.Sprintf("\n[bus traffic across %d simulations: %.1f MB total, %.1f MB in commit packets]\n",
		runs, float64(total.Total())/(1<<20), float64(total.CommitBytes())/(1<<20))
}

// RenderExhibit runs one experiment and renders its one-shot section:
// printer output followed by the deterministic trailer. The returned
// bandwidth/cache snapshots carry the simulations' traffic so cached
// replays of this section can reproduce the job-level meter summary.
func RenderExhibit(id string, cfg experiments.Config) (out []byte, bw bus.Bandwidth, runs int, cs cache.Stats, csRuns int, err error) {
	r, ok := experiments.ByID(id)
	if !ok {
		return nil, bw, 0, cs, 0, fmt.Errorf("unknown experiment %q", id)
	}
	meter := &bus.Meter{}
	cmeter := &cache.Meter{}
	cfg.Meter = meter
	cfg.CacheMeter = cmeter
	p, err := r.Run(cfg)
	if err != nil {
		return nil, bw, 0, cs, 0, fmt.Errorf("%s: %w", id, err)
	}
	var buf bytes.Buffer
	p.Print(&buf)
	buf.WriteString(ExhibitTrailer(id, -1, cfg.Verify))
	bw, runs = meter.Snapshot()
	cs, csRuns = cmeter.Snapshot()
	return buf.Bytes(), bw, runs, cs, csRuns, nil
}

// WriteOneShot writes the exact `bulksim -notime` output for the given
// exhibit ids: sections separated by blank lines, then the meter summary.
// This is the serial reference path — no cache, no coalescing — that the
// byte-identity tests compare daemon responses against. bulksim does not
// call it: it prints each section as it finishes.
func WriteOneShot(w io.Writer, ids []string, cfg experiments.Config) error {
	var total bus.Bandwidth
	runs := 0
	for i, id := range ids {
		out, bw, n, _, _, err := RenderExhibit(id, cfg)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if _, err := w.Write(out); err != nil {
			return err
		}
		total.Add(&bw)
		runs += n
	}
	_, err := io.WriteString(w, MeterSummary(total, runs))
	return err
}

// CheckOK is the per-target success line of a bulkcheck sweep.
func CheckOK(name string, rep *check.Report, verbose bool) string {
	if verbose {
		return fmt.Sprintf("ok   %s: %d schedules, %d distinct outcomes\n",
			name, rep.Schedules, rep.Distinct)
	}
	return fmt.Sprintf("ok   %s\n", name)
}

// CheckFail renders an oracle rejection exactly as bulkcheck prints it:
// the FAIL banner plus the reason, minimized schedule, replay command and
// step list.
func CheckFail(name string, rep *check.Report) string {
	var buf bytes.Buffer
	f := rep.Failure
	fmt.Fprintf(&buf, "FAIL %s after %d schedules\n", name, rep.Schedules)
	fmt.Fprintf(&buf, "  reason:   %s\n", f.Reason)
	fmt.Fprintf(&buf, "  schedule: %s\n", check.FormatSchedule(f.Schedule))
	fmt.Fprintf(&buf, "  replay:   bulkcheck -target %s -replay %s\n", name, check.FormatSchedule(f.Schedule))
	for _, st := range f.Steps {
		fmt.Fprintf(&buf, "    %s\n", st)
	}
	return buf.String()
}

// RenderCheck explores one sweep target and renders bulkcheck's report
// lines for it. The report is byte-identical at every worker count, so
// the daemon's worker setting never leaks into result bytes.
func RenderCheck(t check.Target, b check.Budget, workers int, verbose bool) []byte {
	rep := check.ExploreParallel(t, 0, b, workers)
	if rep.Failure != nil {
		return []byte(CheckFail(t.Name(), rep))
	}
	return []byte(CheckOK(t.Name(), rep, verbose))
}
