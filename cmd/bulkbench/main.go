// Command bulkbench is the repository's end-to-end benchmark. It runs one
// named workload as a closed loop from a single process against the public
// entry points a user waits on — the runtimes (tm.Run, tls.Run and their
// Verify oracles), the model checker (check.ExploreParallel) and the bulkd
// daemon (serve.New and its Handler on a loopback listener) — checks every
// operation's output, and prints the metrics BENCHMARK.json names.
//
// Usage:
//
//	bulkbench -workload tm-lu -seed 1 -seconds 15 -trace 0
//	bulkbench -workload all -runs 10 -seed 1 -out runs.json
//	bulkbench compare A.json B.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With -trace 0 the metrics are the
// end-to-end metrics, measured with every hook off. With -trace 1 they are
// the per-layer metrics: the runtimes' hooks are installed, spans are
// recorded around the calls into each layer, and a CPU profile is taken
// and summarized per package; the spans (Chrome trace-event JSON), the
// profile and its summary are written under -tracedir.
//
// -workload all runs every workload in a fresh child process, -runs times
// each on seeds seed, seed+1, ..., prints each metric's median and
// interquartile spread, and with -out writes every result for compare.
// Run through run.sh, which builds the binary from source first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Run shape shared by every workload.
const (
	defaultSeconds = 15
	warmup         = 2 * time.Second
	// Set-up runs at least setupReps times and for at least setupTime;
	// setup_s is the median. A set-up that takes milliseconds thus runs
	// often enough that a burst of host stalls cannot move the median.
	setupReps = 3
	setupTime = time.Second
	// tracedShare is the part of a traced run's window spent with every
	// hook installed; the rest is an untraced reference for the overhead.
	tracedShare = 0.75
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output object, printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit, in print order.
type metricDef struct{ name, unit string }

// endToEndDefs are the metrics a user of the system sees, measured with
// tracing off.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
}

// perLayerDefs are the traced run's metrics, layer by layer.
var perLayerDefs = func() []metricDef {
	var defs []metricDef
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu." + l + "_frac", "ratio"})
	}
	return append(defs, []metricDef{
		{"runtime.run_ms_p50", "ms"},
		{"runtime.verify_ms_p50", "ms"},
		{"check.explore_ms_p50", "ms"},
		{"serve.request_ms_p50", "ms"},
		{"workload.generate_ms", "ms"},
		{"sim.steps_per_op", "count/op"},
		{"sim.branches_per_op", "count/op"},
		{"sim.cycles_per_op", "cycles/op"},
		{"sim.host_ns_per_step", "ns"},
		{"sig.checks_per_op", "count/op"},
		{"sig.commit_checks_per_op", "count/op"},
		{"sig.inval_checks_per_op", "count/op"},
		{"sig.false_pos_frac", "ratio"},
		{"cache.accesses_per_op", "count/op"},
		{"cache.miss_frac", "ratio"},
		{"cache.invals_per_op", "count/op"},
		{"cache.evictions_per_op", "count/op"},
		{"bus.msgs_per_op", "count/op"},
		{"bus.bytes_per_op", "B/op"},
		{"bus.commit_bytes_per_op", "B/op"},
		{"rt.commits_per_op", "count/op"},
		{"rt.squashes_per_op", "count/op"},
		{"rt.squash_frac", "ratio"},
		{"rt.false_squash_frac", "ratio"},
		{"rt.stall_frac", "ratio"},
		{"check.schedules_per_op", "count/op"},
		{"check.distinct_per_op", "count/op"},
		{"check.host_us_per_schedule", "us"},
		{"serve.cache_hit_frac", "ratio"},
		{"serve.coalesced_frac", "ratio"},
		{"serve.rejected_429", "count"},
		{"serve.http_overhead_ms_p50", "ms"},
		{"go.allocs_per_op", "count/op"},
		{"go.gc_per_op", "count/op"},
		{"go.max_rss_mb", "MB"},
		{"trace.overhead_frac", "ratio"},
	}...)
}()

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("bulkbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", defaultSeconds, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end measurement")
	traceDir := fs.String("tracedir", filepath.Join(".bench_build", "trace"), "directory for the traced run's spans and profiles")
	runs := fs.Int("runs", 1, "with -workload all: runs of each workload, on consecutive seeds")
	out := fs.String("out", "", "with -workload all: file to write every run's result to, for compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bulkbench: need -seconds >= 1, -runs >= 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	if *name == "all" {
		return runAll(os.Stdout, *seed, *seconds, *trace, *traceDir, *runs, *out)
	}
	wl, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bulkbench: unknown workload %q (want %s, or all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := defaultConfig(*seed)
	cfg.window = time.Duration(*seconds) * time.Second
	cfg.warmup = warmup
	if *trace == 1 {
		cfg.traceDir = *traceDir
	}
	res, err := run(wl, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bulkbench: %s: %v\n", wl.name, err)
		return 1
	}
	if err := printResult(os.Stdout, wl.name, cfg, res); err != nil {
		fmt.Fprintf(os.Stderr, "bulkbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// printResult prints every metric by name with its unit, then the result
// object as the last line.
func printResult(w io.Writer, name string, cfg config, res *result) error {
	defs := endToEndDefs
	if cfg.traced() {
		defs = perLayerDefs
	}
	fmt.Fprintf(w, "bulkbench: workload=%s seed=%d traced=%v attempted=%d failed=%d\n",
		name, cfg.seed, cfg.traced(), res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "  %-28s %14.6g %s\n", "fail_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}
