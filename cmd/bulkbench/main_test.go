package main

import (
	"bytes"
	"errors"
	"os"
	"slices"
	"strings"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if p90, err := percentile(xs, 0.90); err != nil || p90 != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", p90, err)
	}
	if p50, err := percentile(xs, 0.50); err != nil || p50 != 50 {
		t.Fatalf("p50 of 1..100 = %v, %v; want 50", p50, err)
	}
	if _, err := percentile(xs[:99], 0.90); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p90 of 99 samples: err = %v, want errTooFewSamples", err)
	}
}

func TestTypicalTakesEachInputsMedian(t *testing.T) {
	lat := []float64{10, 2, 11, 40, 3, 12, 7, 2}
	inputs := []int{0, 1, 0, 0, 1, 0, 5, 1}
	want := []float64{11.5, 2, 11.5, 11.5, 2, 11.5, 7, 2}
	if got := typical(lat, inputs); !slices.Equal(got, want) {
		t.Fatalf("typical = %v, want %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2}, [3]float64{1, 3, 5}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if [3]float64{q1, q2, q3} != tc.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.xs, q1, q2, q3, tc.want)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"bulk/internal/flatmap.(*Map[go.shape.uint64]).Get":     "bulk/internal/flatmap",
		"bulk/internal/flatmap.(*Map[bulk/internal/sig.X]).Put": "bulk/internal/flatmap",
		"bulk/internal/par.StealForEach[go.shape.int].func1":    "bulk/internal/par",
		"internal/runtime/atomic.(*Uint32).Load":                "internal/runtime/atomic",
		"runtime.mallocgc":                                      "runtime",
		"main.(*coreBench).op":                                  "main",
		"gogo":                                                  "gogo",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseTopFixture(t *testing.T) {
	out, err := os.ReadFile("testdata/top.txt")
	if err != nil {
		t.Fatal(err)
	}
	flat, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sig": 320, "flatmap": 270, "goruntime": 180, "par": 60, "check": 50, "other": 120}
	for i, l := range cpuLayers {
		if flat[i] != want[l] {
			t.Errorf("layer %s: %v ms, want %v", l, flat[i], want[l])
		}
	}
	sh, err := shares(flat)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, s := range sh {
		sum += s
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("shares add up to %v", sum)
	}
	if _, err := parseTop([]byte("no header here\n")); err == nil {
		t.Error("parseTop accepted output without a header")
	}
	if _, err := parseMs("1.5s"); err == nil {
		t.Error("parseMs accepted a value in seconds")
	}
	if _, err := shares(make([]float64, len(cpuLayers))); err == nil {
		t.Error("shares accepted an empty profile")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := specMetric{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{10, 10.1, 9.9, 10, 10.05, 9.95}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name string
		m    specMetric
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, within},
		{"slightly worse", lower, steady, scale(steady, 1.05), within},
		{"much worse", lower, steady, scale(steady, 1.2), regressed},
		{"much better", lower, steady, scale(steady, 0.5), within},
		{"noisy", lower, steady, []float64{5, 20, 12, 8, 30, 9}, unresolved},
		{"noisy but every run better", lower, []float64{10, 14, 18, 12, 16}, []float64{5, 6, 7, 8, 9}, within},
		{"higher is better, fell", higher, steady, scale(steady, 0.8), regressed},
		{"higher is better, rose", higher, steady, scale(steady, 1.2), within},
	} {
		if got := compareMetric(tc.m, tc.a, tc.b).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// specNames returns the names of BENCHMARK.json's metrics and workloads.
func specNames(t *testing.T) (e2e, layer, wls []string) {
	t.Helper()
	sp, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range sp.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range sp.PerLayer {
		layer = append(layer, m.Name+" "+m.Unit)
	}
	for _, w := range sp.Workloads {
		wls = append(wls, w.Name)
	}
	return e2e, layer, wls
}

func defNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name+" "+d.unit)
	}
	return out
}

// printedNames runs printResult and returns the metric names of the
// result object on its last line.
func printedNames(t *testing.T, cfg config, res *result) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := printResult(&buf, "test", cfg, res); err != nil {
		t.Fatal(err)
	}
	last, err := lastResult(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for name, m := range last.Metrics {
		names = append(names, name+" "+m.Unit)
	}
	slices.Sort(names)
	return names
}

func sorted(xs []string) []string {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

func TestSpecMatchesHarness(t *testing.T) {
	e2e, layer, wls := specNames(t)
	if !slices.Equal(e2e, defNames(endToEndDefs)) {
		t.Errorf("BENCHMARK.json end_to_end %v, harness prints %v", e2e, defNames(endToEndDefs))
	}
	if !slices.Equal(layer, defNames(perLayerDefs)) {
		t.Errorf("BENCHMARK.json per_layer %v, harness prints %v", layer, defNames(perLayerDefs))
	}
	if !slices.Equal(wls, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", wls, workloadNames())
	}
}

// smokeConfig runs a handful of operations with no warm-up, over 8 inputs
// per runtime workload.
func smokeConfig(ops int) config {
	cfg := defaultConfig(1)
	cfg.warmup = 0
	cfg.setupTime = 0
	cfg.ops = ops
	cfg.inputs = 8
	return cfg
}

func TestSmokeEveryWorkload(t *testing.T) {
	e2e, _, _ := specNames(t)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			cfg := smokeConfig(100)
			res, err := run(wl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != cfg.ops {
				t.Fatalf("correct=%v failed=%d attempted=%d, want true, 0, %d", res.Correct, res.Failed, res.Attempted, cfg.ops)
			}
			if got := printedNames(t, cfg, res); !slices.Equal(got, sorted(e2e)) {
				t.Fatalf("printed %v, want %v", got, sorted(e2e))
			}
		})
	}
}

// TestTracedCountsRepeat runs the traced breakdown twice: every per-layer
// metric is printed, the CPU shares add up to 1, and the simulated counts
// repeat exactly.
func TestTracedCountsRepeat(t *testing.T) {
	_, layer, _ := specNames(t)
	wl, _ := workloadByName("tm-lu")
	var runs [2]*result
	for i := range runs {
		cfg := smokeConfig(32)
		cfg.traceDir = t.TempDir()
		res, err := run(wl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("traced run failed %d of %d operations", res.Failed, res.Attempted)
		}
		if got := printedNames(t, cfg, res); !slices.Equal(got, sorted(layer)) {
			t.Fatalf("printed %v, want %v", got, sorted(layer))
		}
		sum := 0.0
		for _, l := range cpuLayers {
			sum += res.Metrics["cpu."+l+"_frac"].Value
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("cpu shares add up to %v", sum)
		}
		for _, name := range []string{"trace.json", "cpu.pprof", "top.txt"} {
			if _, err := os.Stat(cfg.traceDir + "/tm-lu-seed1." + name); err != nil {
				t.Error(err)
			}
		}
		runs[i] = res
	}
	for _, d := range perLayerDefs {
		if !strings.HasPrefix(d.name, "sim.") && !strings.HasPrefix(d.name, "sig.") &&
			!strings.HasPrefix(d.name, "cache.") && !strings.HasPrefix(d.name, "bus.") &&
			!strings.HasPrefix(d.name, "rt.") || d.name == "sim.host_ns_per_step" {
			continue
		}
		a, b := runs[0].Metrics[d.name].Value, runs[1].Metrics[d.name].Value
		if a != b {
			t.Errorf("%s: %v then %v; simulated counts must repeat exactly", d.name, a, b)
		}
	}
	if runs[0].Metrics["sim.steps_per_op"].Value == 0 || runs[0].Metrics["sig.checks_per_op"].Value == 0 {
		t.Error("the runtime hooks counted nothing")
	}
}
