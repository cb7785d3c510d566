package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"bulk/internal/bus"
	"bulk/internal/cache"
	"bulk/internal/sim"
)

// tracer collects a traced phase's spans and counters. Spans land by
// client index; the counters are written only by single-client workloads.
type tracer struct {
	origin time.Time
	spans  [][]span
	// first counts the simulated work of the first pass over the inputs,
	// which is deterministic in the seed.
	first layerCounts
	host  hostTime
}

type span struct {
	name       string
	op         int
	start, dur time.Duration
}

// hostTime is host time spent in a layer against the simulated work it
// did, over every traced operation.
type hostTime struct {
	runNs     int64
	steps     uint64
	exploreNs int64
	schedules uint64
}

func newTracer(clients int) *tracer {
	return &tracer{origin: time.Now(), spans: make([][]span, clients)}
}

// record closes a span of client c's operation op begun at start and
// returns its duration. A nil tracer records nothing.
func (t *tracer) record(c int, name string, op int, start time.Time) time.Duration {
	if t == nil {
		return 0
	}
	d := time.Since(start)
	t.spans[c] = append(t.spans[c], span{name: name, op: op, start: start.Sub(t.origin), dur: d})
	return d
}

// p50 is the median duration in ms of the spans with the given name, 0
// when there are none.
func (t *tracer) p50(name string) float64 {
	var xs []float64
	for _, cs := range t.spans {
		for _, s := range cs {
			if s.name == name {
				xs = append(xs, ms(s.dur))
			}
		}
	}
	return median(xs)
}

// chromeEvent is a complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // µs since the traced phase began
	Dur  float64 `json:"dur"` // µs
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"` // client index
	Args struct {
		Op int `json:"op"` // the client's operation index; a span's parent is its op span
	} `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON, loadable in
// chrome://tracing or Perfetto.
func (t *tracer) writeChrome(path string) error {
	var evs []chromeEvent
	for c, cs := range t.spans {
		for _, s := range cs {
			ev := chromeEvent{Name: s.name, Ph: "X", Pid: 1, Tid: c,
				Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3}
			ev.Args.Op = s.op
			evs = append(evs, ev)
		}
	}
	data, err := json.Marshal(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{evs, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// simHooks are one runtime run's observers: a counting default scheduler,
// a conflict probe and a cache meter.
type simHooks struct {
	sched countingScheduler
	probe sim.Probe
	sig   sigCounts
	cache cache.Meter
}

func newSimHooks() *simHooks {
	h := &simHooks{}
	h.probe.Conflict = h.sig.observe
	return h
}

// install points a runtime's hook options at h; a nil h installs nothing,
// leaving the run exactly as untraced.
func (h *simHooks) install(sched *sim.Scheduler, probe **sim.Probe, meter **cache.Meter) {
	if h == nil {
		return
	}
	*sched, *probe, *meter = &h.sched, &h.probe, &h.cache
}

// countingScheduler makes sim.DefaultScheduler's choices, so a run under
// it is byte-identical to an unscheduled one, and counts the decisions.
type countingScheduler struct {
	steps, branches uint64
}

func (s *countingScheduler) PickProc(candidates []int, ready []int64) int {
	s.steps++
	return sim.DefaultScheduler{}.PickProc(candidates, ready)
}

func (s *countingScheduler) PickBranch(kind sim.BranchKind, n, def int) int {
	s.branches++
	return sim.DefaultScheduler{}.PickBranch(kind, n, def)
}

// sigCounts tallies the signature conflict checks a probe reports.
type sigCounts struct {
	checks, commit, inval uint64
	hits, falsePos        uint64
}

func (s *sigCounts) observe(ev sim.ConflictEvent) {
	s.checks++
	switch ev.Path {
	case sim.PathCommit:
		s.commit++
	case sim.PathInvalidation:
		s.inval++
	}
	if ev.SigHit {
		s.hits++
		if !ev.ExactHit {
			s.falsePos++
		}
	}
}

// layerCounts are simulated-work counters summed over operations.
type layerCounts struct {
	ops                               int
	steps, branches                   uint64
	cycles, stallCycles               int64
	sig                               sigCounts
	cache                             cache.Stats
	busMsgs, busBytes, busCommitBytes uint64
	commits, squashes, falseSquashes  uint64
	schedules, distinct               int
}

func (l *layerCounts) addCore(st coreStats, h *simHooks) {
	l.ops++
	l.steps += h.sched.steps
	l.branches += h.sched.branches
	l.cycles += st.cycles
	l.stallCycles += st.stallCycles
	l.sig.checks += h.sig.checks
	l.sig.commit += h.sig.commit
	l.sig.inval += h.sig.inval
	l.sig.hits += h.sig.hits
	l.sig.falsePos += h.sig.falsePos
	cs, _ := h.cache.Snapshot()
	l.cache.Add(cs)
	for _, mt := range bus.MsgTypes {
		l.busMsgs += st.bw.Messages(mt)
	}
	l.busBytes += st.bw.Total()
	l.busCommitBytes += st.bw.CommitBytes()
	l.commits += st.commits
	l.squashes += st.squashes
	l.falseSquashes += st.falseSquashes
}

// cpuLayers are the layers CPU self time is attributed to, in report
// order. Every package of the module's internal tree with a layer of its
// own maps to its name; the Go runtime is goruntime; the rest is other.
var cpuLayers = []string{
	"sig", "bdm", "cache", "bus", "sim", "flatmap", "mem", "workload",
	"tm", "tls", "ckpt", "check", "par", "experiments", "serve",
	"goruntime", "other",
}

// layerIndex returns the cpuLayers index a package's self time goes to.
func layerIndex(pkg string) int {
	l := "other"
	if pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/internal/") {
		l = "goruntime"
	} else if name, ok := strings.CutPrefix(pkg, "bulk/internal/"); ok {
		l = name
	}
	for i, c := range cpuLayers {
		if c == l {
			return i
		}
	}
	return len(cpuLayers) - 1
}

// packageOf returns the import path of the package a pprof function name
// belongs to: everything before the first dot after the last slash, where
// slashes inside a receiver or type-argument list do not count.
func packageOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// parseTop sums the flat (self) time of `go tool pprof -top -unit=ms`
// output per layer, in ms, indexed like cpuLayers.
func parseTop(out []byte) ([]float64, error) {
	flat := make([]float64, len(cpuLayers))
	header := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !header {
			header = len(fields) > 0 && fields[0] == "flat" && len(fields) >= 5
			continue
		}
		if len(fields) < 6 {
			continue
		}
		v, err := parseMs(fields[0])
		if err != nil {
			return nil, err
		}
		name := strings.TrimSuffix(strings.Join(fields[5:], " "), " (inline)")
		flat[layerIndex(packageOf(name))] += v
	}
	if !header {
		return nil, fmt.Errorf("pprof -top output has no flat/cum header")
	}
	return flat, sc.Err()
}

// parseMs reads a pprof -unit=ms value such as "1234.50ms" or "0".
func parseMs(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
	if err != nil || !strings.HasSuffix(s, "ms") {
		return 0, fmt.Errorf("pprof value %q is not in ms", s)
	}
	return v, nil
}

// shares turns per-layer self time into shares of the total, which must
// add up to 1 within 0.01.
func shares(flat []float64) ([]float64, error) {
	total := 0.0
	for _, v := range flat {
		total += v
	}
	if total <= 0 {
		return nil, fmt.Errorf("CPU profile holds no samples")
	}
	out := make([]float64, len(flat))
	sum := 0.0
	for i, v := range flat {
		out[i] = v / total
		sum += out[i]
	}
	if math.Abs(sum-1) > 0.01 {
		return nil, fmt.Errorf("layer shares add up to %v, want 1", sum)
	}
	return out, nil
}

// profileShares summarizes a CPU profile per package with
// `go tool pprof -top`, keeps the summary at topPath, and returns each
// layer's share of self time.
func profileShares(profPath, topPath string) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodefraction=0", "-unit=ms", exe, profPath)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	if err := os.WriteFile(topPath, out, 0o644); err != nil {
		return nil, err
	}
	flat, err := parseTop(out)
	if err != nil {
		return nil, err
	}
	return shares(flat)
}
