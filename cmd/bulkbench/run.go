package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// config is one run's shape.
type config struct {
	seed   uint64
	window time.Duration // length of the timed window
	warmup time.Duration // untimed closed loop before the window
	// setupTime is how long set-up repeats for, at least setupReps times.
	setupTime time.Duration
	// ops, when positive, replaces the timed window by this many
	// operations (tests).
	ops int
	// inputs is how many seeded inputs a runtime workload cycles through.
	inputs int
	// traceDir, when set, makes the run a traced one writing there.
	traceDir string
}

func defaultConfig(seed uint64) config {
	return config{
		seed:      seed,
		window:    defaultSeconds * time.Second,
		warmup:    warmup,
		setupTime: setupTime,
		inputs:    coreInputs,
	}
}

func (c config) traced() bool { return c.traceDir != "" }

// limit is the share of the timed window a phase runs for.
func (c config) limit(share float64) limit {
	if c.ops > 0 {
		return limit{ops: max(1, int(share*float64(c.ops)))}
	}
	return limit{d: time.Duration(share * float64(c.window))}
}

// bench is a workload after set-up: the closed loop calls op repeatedly.
type bench interface {
	// op runs client c's k-th operation of the current phase and checks
	// its output. t is nil when the run is untraced. It returns the index
	// of the input it ran.
	op(c, k int, t *tracer) (input int, err error)
	close()
}

// workloadDef is one named workload.
type workloadDef struct {
	name    string
	clients int
	// setup builds the inputs and reference outputs and returns the
	// bench plus the part of set-up spent generating inputs.
	setup func(cfg config) (bench, time.Duration, error)
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// run sets the workload up at least setupReps times and for at least
// cfg.setupTime, keeping the last bench, warms it up, and measures it
// untraced or traced.
func run(wl workloadDef, cfg config) (*result, error) {
	var setups, gens []float64
	var b bench
	for spent := time.Duration(0); len(setups) < setupReps || spent < cfg.setupTime; {
		if b != nil {
			b.close()
		}
		start := time.Now()
		nb, gen, err := wl.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start)
		spent += d
		setups = append(setups, d.Seconds())
		gens = append(gens, ms(gen))
		b = nb
	}
	defer b.close()

	if cfg.warmup > 0 {
		p, err := runPhase(b, wl.clients, limit{d: cfg.warmup}, nil, nil)
		if err != nil {
			return nil, err
		}
		if p.failed > 0 {
			return nil, fmt.Errorf("warm-up: %w", p.err)
		}
	}
	if cfg.traced() {
		return runTraced(wl, b, cfg, median(gens))
	}
	return runUntraced(wl, b, cfg, median(setups))
}

// runUntraced measures the end-to-end metrics with every hook off. Times
// are scaled to the reference host's speed, slice by slice; set-up time by
// the window's median slowness. Latencies and throughput are taken from
// each operation's typical latency.
func runUntraced(wl workloadDef, b bench, cfg config, setupS float64) (*result, error) {
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	p, err := runPhase(b, wl.clients, cfg.limit(1), nil, cal)
	if cerr := cal.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	lat := typical(p.scaledLat, p.inputs)
	p50, err := percentile(lat, 0.50)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(lat, 0.90)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bulkbench: %s: host ran %.3fx slower than the reference; unscaled op p50 %.4g ms, ops/s %.4g\n",
		wl.name, p.slow, median(p.lat), float64(p.n())/p.elapsed.Seconds())
	n := float64(p.n())
	return newResult(p.n(), p.failed, endToEndDefs, map[string]float64{
		"setup_s":   setupS / p.slow,
		"op_ms_p50": p50,
		"op_ms_p90": p90,
		// Little's law for a closed loop with no think time.
		"ops_per_s":       float64(wl.clients) * 1e3 / mean(lat),
		"cpu_ms_per_op":   p.scaledCPUMs / n,
		"alloc_mb_per_op": float64(p.alloc) / (1 << 20) / n,
	})
}

// runTraced measures an untraced reference phase, then a traced phase
// with the runtimes' hooks installed, spans recorded and the CPU
// profiled, and reports the per-layer metrics. Neither phase calibrates,
// so the kernel stays out of the profile; layer times are host times.
func runTraced(wl workloadDef, b bench, cfg config, generateMs float64) (*result, error) {
	base, err := runPhase(b, wl.clients, cfg.limit(1-tracedShare), nil, nil)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d", wl.name, cfg.seed))
	sb, isServe := b.(*serveBench)
	var sBefore, sAfter serveCounters
	if isServe {
		if sBefore, err = sb.scrape(); err != nil {
			return nil, err
		}
	}

	tr := newTracer(wl.clients)
	prof, err := os.Create(stem + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		_ = prof.Close() // already failing; the profiler error is the one to report
		return nil, err
	}
	p, err := runPhase(b, wl.clients, cfg.limit(tracedShare), tr, nil)
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if isServe {
		if sAfter, err = sb.scrape(); err != nil {
			return nil, err
		}
	}
	if err := tr.writeChrome(stem + ".trace.json"); err != nil {
		return nil, err
	}
	cpu, err := profileShares(stem+".cpu.pprof", stem+".top.txt")
	if err != nil {
		return nil, err
	}
	rss, err := maxRSS()
	if err != nil {
		return nil, err
	}

	opP50 := median(p.lat)
	n := float64(p.n())
	f := tr.first
	fn := float64(f.ops)
	vals := map[string]float64{
		"runtime.run_ms_p50":         tr.p50("runtime.run"),
		"runtime.verify_ms_p50":      tr.p50("runtime.verify"),
		"check.explore_ms_p50":       tr.p50("check.explore"),
		"serve.request_ms_p50":       tr.p50("serve.request"),
		"workload.generate_ms":       generateMs,
		"sim.steps_per_op":           ratio(float64(f.steps), fn),
		"sim.branches_per_op":        ratio(float64(f.branches), fn),
		"sim.cycles_per_op":          ratio(float64(f.cycles), fn),
		"sim.host_ns_per_step":       ratio(float64(tr.host.runNs), float64(tr.host.steps)),
		"sig.checks_per_op":          ratio(float64(f.sig.checks), fn),
		"sig.commit_checks_per_op":   ratio(float64(f.sig.commit), fn),
		"sig.inval_checks_per_op":    ratio(float64(f.sig.inval), fn),
		"sig.false_pos_frac":         ratio(float64(f.sig.falsePos), float64(f.sig.hits)),
		"cache.accesses_per_op":      ratio(float64(f.cache.Hits+f.cache.Misses), fn),
		"cache.miss_frac":            ratio(float64(f.cache.Misses), float64(f.cache.Hits+f.cache.Misses)),
		"cache.invals_per_op":        ratio(float64(f.cache.Invals), fn),
		"cache.evictions_per_op":     ratio(float64(f.cache.Evictions), fn),
		"bus.msgs_per_op":            ratio(float64(f.busMsgs), fn),
		"bus.bytes_per_op":           ratio(float64(f.busBytes), fn),
		"bus.commit_bytes_per_op":    ratio(float64(f.busCommitBytes), fn),
		"rt.commits_per_op":          ratio(float64(f.commits), fn),
		"rt.squashes_per_op":         ratio(float64(f.squashes), fn),
		"rt.squash_frac":             ratio(float64(f.squashes), float64(f.commits+f.squashes)),
		"rt.false_squash_frac":       ratio(float64(f.falseSquashes), float64(f.squashes)),
		"rt.stall_frac":              ratio(float64(f.stallCycles), float64(f.cycles)),
		"check.schedules_per_op":     ratio(float64(f.schedules), fn),
		"check.distinct_per_op":      ratio(float64(f.distinct), fn),
		"check.host_us_per_schedule": ratio(float64(tr.host.exploreNs)/1e3, float64(tr.host.schedules)),
		"serve.cache_hit_frac":       ratio(float64(sAfter.Jobs.CellsCached-sBefore.Jobs.CellsCached), float64(sAfter.cells()-sBefore.cells())),
		"serve.coalesced_frac":       ratio(float64(sAfter.Jobs.CellsCoalesced-sBefore.Jobs.CellsCoalesced), float64(sAfter.cells()-sBefore.cells())),
		"serve.rejected_429":         float64(sAfter.Jobs.RejectedQueue - sBefore.Jobs.RejectedQueue),
		"serve.http_overhead_ms_p50": 0,
		"go.allocs_per_op":           ratio(float64(p.mallocs), n),
		"go.gc_per_op":               ratio(float64(p.gcs), n),
		"go.max_rss_mb":              float64(rss) / (1 << 20),
		"trace.overhead_frac":        ratio(opP50, median(base.lat)) - 1,
	}
	if isServe {
		vals["serve.http_overhead_ms_p50"] = opP50 - sAfter.Latency.Run.P50
	}
	for i, l := range cpuLayers {
		vals["cpu."+l+"_frac"] = cpu[i]
	}
	return newResult(base.n()+p.n(), base.failed+p.failed, perLayerDefs, vals)
}

// newResult checks that vals holds exactly the metrics defs names.
func newResult(attempted, failed int, defs []metricDef, vals map[string]float64) (*result, error) {
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("computed %d metrics, want %d", len(vals), len(defs))
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// limit ends a phase after a duration or, when ops is set, after that
// many operations across all clients.
type limit struct {
	d   time.Duration
	ops int
}

// calEvery is the length of the closed-loop slices a phase is cut into;
// the calibration kernel is timed alone between slices. The host's speed
// changes within a second, so slices are short.
const calEvery = 250 * time.Millisecond

// phase is the outcome of a closed-loop phase. Its resource counts cover
// the slices only, not the calibrations between them.
type phase struct {
	lat     []float64 // per-operation latency, ms
	inputs  []int     // per-operation input, as bench.op returns it
	failed  int
	err     error // first failure
	elapsed time.Duration
	alloc   uint64 // bytes allocated
	mallocs uint64
	gcs     uint32

	// With calibration, the host's slowness during each slice is the mean
	// of the kernel times before and after it, over calReferenceMs. The
	// scaled fields are lat and process CPU time divided by it, slice by
	// slice; slow is its median over the slices.
	scaledLat   []float64
	scaledCPUMs float64
	slow        float64
}

func (p *phase) n() int { return len(p.lat) }

// runPhase runs the closed loop in slices of calEvery (one slice when the
// limit counts operations), timing cal between slices unless cal is nil.
// Operation indexes continue across slices.
func runPhase(b bench, clients int, lim limit, tr *tracer, cal *calibrator) (*phase, error) {
	p := &phase{}
	next := make([]int, clients)
	var calBefore float64
	var slows []float64
	if cal != nil {
		calBefore = ms(cal.run())
	}
	for {
		sl := limit{d: min(calEvery, lim.d-p.elapsed)}
		if lim.ops > 0 {
			sl = limit{ops: lim.ops - p.n()}
		}
		if sl.d <= 0 && sl.ops <= 0 {
			break
		}
		before, err := readUsage()
		if err != nil {
			return nil, err
		}
		first := p.n()
		loop(b, clients, sl, tr, next, p)
		after, err := readUsage()
		if err != nil {
			return nil, err
		}
		cpu := after.cpu - before.cpu
		p.alloc += after.mem.TotalAlloc - before.mem.TotalAlloc
		p.mallocs += after.mem.Mallocs - before.mem.Mallocs
		p.gcs += after.mem.NumGC - before.mem.NumGC
		if cal == nil {
			continue
		}
		calAfter := ms(cal.run())
		slow := (calBefore + calAfter) / 2 / calReferenceMs
		calBefore = calAfter
		slows = append(slows, slow)
		for _, l := range p.lat[first:] {
			p.scaledLat = append(p.scaledLat, l/slow)
		}
		p.scaledCPUMs += ms(cpu) / slow
	}
	p.slow = median(slows)
	if p.err != nil {
		fmt.Fprintf(os.Stderr, "bulkbench: %d failed operations; first: %v\n", p.failed, p.err)
	}
	return p, nil
}

// loop runs one slice of the closed loop: each client issues its next
// operation only after the previous one returned. Latencies, inputs,
// failures and next operation indexes land by client index and are merged
// into p once every client has stopped.
func loop(b bench, clients int, lim limit, tr *tracer, next []int, p *phase) {
	lat := make([][]float64, clients)
	inputs := make([][]int, clients)
	fails := make([]int, clients)
	errs := make([]error, clients)
	var issued atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := next[c]; ; k++ {
				if (lim.ops > 0 && issued.Add(1) > int64(lim.ops)) || (lim.ops == 0 && time.Since(start) >= lim.d) {
					next[c] = k
					return
				}
				t0 := time.Now()
				in, err := b.op(c, k, tr)
				lat[c] = append(lat[c], ms(time.Since(t0)))
				inputs[c] = append(inputs[c], in)
				tr.record(c, "op", k, t0)
				if err != nil {
					fails[c]++
					if errs[c] == nil {
						errs[c] = fmt.Errorf("client %d op %d: %w", c, k, err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	p.elapsed += time.Since(start)
	for c := range lat {
		p.lat = append(p.lat, lat[c]...)
		p.inputs = append(p.inputs, inputs[c]...)
		p.failed += fails[c]
		if p.err == nil {
			p.err = errs[c]
		}
	}
}

// usage is a process resource sample.
type usage struct {
	cpu time.Duration // user + system CPU time
	mem runtime.MemStats
}

func readUsage() (usage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}, fmt.Errorf("getrusage: %w", err)
	}
	u := usage{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
	runtime.ReadMemStats(&u.mem)
	return u, nil
}

// maxRSS returns the process's peak resident set in bytes.
func maxRSS() (int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return int64(ru.Maxrss) << 10, nil // Linux reports KiB
}

// minBeyond is how many samples must lie above a reported percentile, so a
// tail latency always rests on at least ten slower operations.
const minBeyond = 10

var errTooFewSamples = errors.New("too few operations for the percentile")

// percentile returns the nearest-rank p-quantile of xs, or an error when
// fewer than minBeyond samples lie above it.
func percentile(xs []float64, p float64) (float64, error) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if len(s)-1-i < minBeyond {
		return 0, fmt.Errorf("%w: p%.0f of %d samples has %d beyond it, want %d",
			errTooFewSamples, 100*p, len(s), max(len(s)-1-i, 0), minBeyond)
	}
	return s[i], nil
}

// quartiles returns the quartiles of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// typical replaces each operation's latency by the median latency of the
// operations that ran the same input. The host stalls the benchmark in
// bursts of tens of milliseconds, which land on a minority of an input's
// runs, so the median leaves them out while a slower program still moves
// every run.
func typical(lat []float64, inputs []int) []float64 {
	runs := map[int][]float64{}
	for i, in := range inputs {
		runs[in] = append(runs[in], lat[i])
	}
	out := make([]float64, len(lat))
	for i, in := range inputs {
		out[i] = median(runs[in])
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
