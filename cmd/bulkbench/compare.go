package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runSet maps each workload to the results of its runs, in run order. It
// is what -workload all -out writes and compare reads.
type runSet map[string][]result

// runAll runs every workload in a fresh child process, runs times each on
// consecutive seeds, interleaving workloads so drift hits them alike.
func runAll(w io.Writer, seed uint64, seconds, trace int, traceDir string, runs int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bulkbench: %v\n", err)
		return 1
	}
	set := runSet{}
	status := 0
	for r := 0; r < runs; r++ {
		for _, wl := range workloads {
			cmd := exec.Command(exe, "-workload", wl.name, "-seed", strconv.FormatUint(seed+uint64(r), 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-tracedir", traceDir)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			_, _ = w.Write(stdout) // the child's report, passed through; the summary below is what counts
			res, perr := lastResult(stdout)
			if err != nil || perr != nil {
				fmt.Fprintf(os.Stderr, "bulkbench: %s run %d: exit %v, result %v\n", wl.name, r, err, perr)
				status = 1
				continue
			}
			set[wl.name] = append(set[wl.name], *res)
		}
	}
	defs := endToEndDefs
	if trace == 1 {
		defs = perLayerDefs
	}
	fmt.Fprintf(w, "\nbulkbench: %d run(s) per workload; median [q1, q3] and (q3-q1)/median\n", runs)
	for _, wl := range workloads {
		for _, d := range defs {
			s := summarize(values(set[wl.name], d.name))
			fmt.Fprintf(w, "%-13s %-28s %12.6g [%.6g, %.6g] %6.2f%% %s\n",
				wl.name, d.name, s.med, s.q1, s.q3, 100*s.spread(), d.unit)
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bulkbench: %v\n", err)
			return 1
		}
	}
	return status
}

// lastResult parses the result object on the last line of a run's output.
func lastResult(stdout []byte) (*result, error) {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &res, nil
}

func values(rs []result, name string) []float64 {
	xs := make([]float64, 0, len(rs))
	for _, r := range rs {
		xs = append(xs, r.Metrics[name].Value)
	}
	return xs
}

// summary is a set of runs' quartiles.
type summary struct{ q1, med, q3 float64 }

func summarize(xs []float64) summary {
	q1, q2, q3 := quartiles(xs)
	return summary{q1, q2, q3}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 { return ratio(s.q3-s.q1, math.Abs(s.med)) }

// specMetric is an end-to-end metric as BENCHMARK.json defines it.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range append(s.EndToEnd, s.PerLayer...) {
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better is %q, want lower or higher", path, m.Name, m.Better)
		}
	}
	return &s, nil
}

func loadSet(path string) (runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// Verdicts of compare.
const (
	within     = "within"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// comparison is one metric of one workload across two sets of runs.
type comparison struct {
	a, b    summary
	worse   float64 // how much worse B's median is than A's, as a share of A's
	verdict string
}

// compareMetric judges B against A. When either side's spread is wider
// than the bound the metric is unresolved, unless every run of B is better
// than every run of A; otherwise B regressed when its median is worse by
// more than the bound.
func compareMetric(m specMetric, a, b []float64) comparison {
	c := comparison{a: summarize(a), b: summarize(b)}
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	switch d := sign * (c.b.med - c.a.med); {
	case c.a.med != 0:
		c.worse = d / math.Abs(c.a.med)
	case d > 0:
		c.worse = math.Inf(1)
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range a {
		for _, y := range b {
			allBetter = allBetter && sign*(y-x) < 0
		}
	}
	switch {
	case max(c.a.spread(), c.b.spread()) > m.Bound && !allBetter:
		c.verdict = unresolved
	case c.worse > m.Bound:
		c.verdict = regressed
	default:
		c.verdict = within
	}
	return c
}

// compareMain prints, for each workload and end-to-end metric, both sets'
// medians and quartiles and a verdict. It exits 1 when a metric regressed
// or a set's run failed an output check.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("bulkbench compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bulkbench compare [-spec BENCHMARK.json] A.json B.json")
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bulkbench: %v\n", err)
		return 2
	}
	var sets [2]runSet
	for i := range sets {
		if sets[i], err = loadSet(fs.Arg(i)); err != nil {
			fmt.Fprintf(os.Stderr, "bulkbench: %v\n", err)
			return 2
		}
	}
	status := 0
	fmt.Fprintf(w, "%-13s %-16s %-34s %-34s %8s %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "worse", "verdict")
	for _, wl := range sp.Workloads {
		a, b := sets[0][wl.Name], sets[1][wl.Name]
		if len(a) == 0 || len(b) == 0 {
			fmt.Fprintf(w, "%-13s missing from a set\n", wl.Name)
			status = 1
			continue
		}
		for _, r := range b {
			if !r.Correct {
				fmt.Fprintf(w, "%-13s B has a run with %d/%d failed operations\n", wl.Name, r.Failed, r.Attempted)
				status = 1
				break
			}
		}
		for _, m := range sp.EndToEnd {
			c := compareMetric(m, values(a, m.Name), values(b, m.Name))
			fmt.Fprintf(w, "%-13s %-16s %-34s %-34s %+7.2f%% %s\n", wl.Name, m.Name,
				fmt.Sprintf("%.6g [%.6g, %.6g]", c.a.med, c.a.q1, c.a.q3),
				fmt.Sprintf("%.6g [%.6g, %.6g]", c.b.med, c.b.q1, c.b.q3),
				100*c.worse, c.verdict)
			if c.verdict == regressed {
				status = 1
			}
		}
	}
	return status
}
