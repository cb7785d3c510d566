package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"bulk/internal/bus"
	"bulk/internal/check"
	"bulk/internal/experiments"
	"bulk/internal/rng"
	"bulk/internal/serve"
	"bulk/internal/tls"
	"bulk/internal/tm"
	"bulk/internal/workload"
)

// maxClients bounds every workload's concurrency — clients, daemon
// workers and explorer workers — by the host's cores.
var maxClients = min(2, runtime.NumCPU())

// workloads are the benchmark's named workloads; README.md gives the
// reason for each.
var workloads = []workloadDef{
	{name: "tm-lu", clients: 1, setup: setupTM},
	{name: "tls-crafty", clients: 1, setup: setupTLS},
	{name: "check-small", clients: 1, setup: setupCheck},
	{name: "bulkd-mix", clients: maxClients, setup: setupServe},
}

// coreInputs is how many seeded inputs a runtime workload cycles through.
// Input costs differ by seed, so with few inputs the latency percentiles
// follow the seed: over 8 inputs the p90 of tm-lu moves 21% (interquartile
// range across seeds), over 64 it moves about 2%.
const coreInputs = 64

// coreStats is the part of a runtime run the benchmark checks and counts.
type coreStats struct {
	full                             any // the runtime's whole Stats value, compared with ==
	commits, squashes, falseSquashes uint64
	cycles, stallCycles              int64
	bw                               bus.Bandwidth
}

// coreBench cycles through seeded inputs of one runtime. Every run must
// pass the runtime's serial-replay oracle and repeat its input's reference
// run from set-up exactly.
type coreBench struct {
	// run executes input i with the hooks h installed (none when nil) and
	// returns the run's stats and the oracle call that checks it.
	run  func(i int, h *simHooks) (coreStats, func() error, error)
	refs []coreStats
}

func (b *coreBench) reference(n int) error {
	b.refs = make([]coreStats, n)
	for i := range b.refs {
		st, verify, err := b.run(i, nil)
		if err == nil {
			err = verify()
		}
		if err != nil {
			return fmt.Errorf("input %d: %w", i, err)
		}
		b.refs[i] = st
	}
	return nil
}

func (b *coreBench) op(c, k int, t *tracer) (int, error) {
	i := k % len(b.refs)
	var h *simHooks
	if t != nil {
		h = newSimHooks()
	}
	start := time.Now()
	st, verify, err := b.run(i, h)
	runTime := t.record(c, "runtime.run", k, start)
	if err != nil {
		return i, fmt.Errorf("input %d: %w", i, err)
	}
	start = time.Now()
	err = verify()
	t.record(c, "runtime.verify", k, start)
	if err != nil {
		return i, fmt.Errorf("input %d: %w", i, err)
	}
	if st.full != b.refs[i].full {
		return i, fmt.Errorf("input %d: stats differ from the input's reference run", i)
	}
	if t != nil {
		t.host.runNs += runTime.Nanoseconds()
		t.host.steps += h.sched.steps
		if k < len(b.refs) {
			t.first.addCore(st, h)
		}
	}
	return i, nil
}

func (b *coreBench) close() {}

func setupTM(cfg config) (bench, time.Duration, error) {
	p, ok := workload.TMProfileByName("lu")
	if !ok {
		return nil, 0, errors.New("no lu TM profile")
	}
	p.TxnsPerThread = 12
	start := time.Now()
	ws := make([]*workload.TMWorkload, cfg.inputs)
	for i := range ws {
		ws[i] = workload.GenerateTM(p, cfg.seed+uint64(i))
	}
	gen := time.Since(start)
	b := &coreBench{run: func(i int, h *simHooks) (coreStats, func() error, error) {
		opts := tm.NewOptions(tm.Bulk)
		h.install(&opts.Scheduler, &opts.Probe, &opts.CacheMeter)
		res, err := tm.Run(ws[i], opts)
		if err != nil {
			return coreStats{}, nil, err
		}
		s := res.Stats
		return coreStats{full: s, commits: s.Commits, squashes: s.Squashes, falseSquashes: s.FalseSquashes,
				cycles: s.Cycles, bw: s.Bandwidth},
			func() error { return tm.Verify(ws[i], res) }, nil
	}}
	return b, gen, b.reference(len(ws))
}

func setupTLS(cfg config) (bench, time.Duration, error) {
	p, ok := workload.TLSProfileByName("crafty")
	if !ok {
		return nil, 0, errors.New("no crafty TLS profile")
	}
	p.Tasks = 120
	start := time.Now()
	ws := make([]*workload.TLSWorkload, cfg.inputs)
	for i := range ws {
		ws[i] = workload.GenerateTLS(p, cfg.seed+uint64(i))
	}
	gen := time.Since(start)
	b := &coreBench{run: func(i int, h *simHooks) (coreStats, func() error, error) {
		opts := tls.NewOptions(tls.Bulk)
		h.install(&opts.Scheduler, &opts.Probe, &opts.CacheMeter)
		res, err := tls.Run(ws[i], opts)
		if err != nil {
			return coreStats{}, nil, err
		}
		s := res.Stats
		return coreStats{full: s, commits: s.Commits, squashes: s.Squashes, falseSquashes: s.FalseSquashes,
				cycles: s.Cycles, stallCycles: s.StallCycles, bw: s.Bandwidth},
			func() error { return tls.Verify(ws[i], res) }, nil
	}}
	return b, gen, b.reference(len(ws))
}

// checkBench explores the model checker's sweep targets round-robin at
// bulkcheck's small budget. Every report must be failure-free and match its
// target's first sweep.
type checkBench struct {
	targets []check.Target
	refs    []*check.Report
	budget  check.Budget
	first   int // the seed rotates the starting target
}

func setupCheck(cfg config) (bench, time.Duration, error) {
	start := time.Now()
	targets := check.SweepTargets()
	gen := time.Since(start)
	b := &checkBench{targets: targets, budget: check.SmallBudget(), first: int(cfg.seed % uint64(len(targets)))}
	for _, t := range targets {
		rep := check.ExploreParallel(t, 0, b.budget, maxClients)
		if rep.Failure != nil {
			return nil, 0, fmt.Errorf("%s: %s", rep.Target, rep.Failure.Reason)
		}
		b.refs = append(b.refs, rep)
	}
	return b, gen, nil
}

func (b *checkBench) op(c, k int, t *tracer) (int, error) {
	i := (b.first + k) % len(b.targets)
	start := time.Now()
	rep := check.ExploreParallel(b.targets[i], 0, b.budget, maxClients)
	d := t.record(c, "check.explore", k, start)
	ref := b.refs[i]
	switch {
	case rep.Failure != nil:
		return i, fmt.Errorf("%s: %s", rep.Target, rep.Failure.Reason)
	case rep.Target != ref.Target || rep.Schedules != ref.Schedules ||
		rep.Distinct != ref.Distinct || rep.Duplicates != ref.Duplicates:
		return i, fmt.Errorf("%s: report %d/%d/%d differs from the first sweep's %d/%d/%d", rep.Target,
			rep.Schedules, rep.Distinct, rep.Duplicates, ref.Schedules, ref.Distinct, ref.Duplicates)
	}
	if t != nil {
		t.host.exploreNs += d.Nanoseconds()
		t.host.schedules += uint64(rep.Schedules)
		if k < len(b.targets) {
			t.first.ops++
			t.first.schedules += rep.Schedules
			t.first.distinct += rep.Distinct
		}
	}
	return i, nil
}

func (b *checkBench) close() {}

// bulkd-mix traffic: quick-mode exhibit cells, repeatShare of them drawn
// from a pool primed into the result cache during set-up.
var mixExhibits = []string{"table6", "table8", "ext-checkpoint", "ablation-granularity", "ext-wordtm"}

const (
	poolSeeds   = 4
	repeatShare = 0.3
)

// poolEntry is one repeated request and the bytes it must return.
type poolEntry struct {
	body string
	want []byte
}

// serveBench sends /run requests to an in-process daemon over loopback.
type serveBench struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error // Serve's return value
	url    string
	client *http.Client
	pool   []poolEntry
	rngs   []*rng.Rand // by client
}

func runBody(id string, seed uint64) string {
	return fmt.Sprintf(`{"kind":"exhibit","exhibit":%q,"seed":%d,"quick":true}`, id, seed)
}

func setupServe(cfg config) (bench, time.Duration, error) {
	r := rng.New(cfg.seed)
	start := time.Now()
	var pool []poolEntry
	for s := 0; s < poolSeeds; s++ {
		// Pool seeds have the top bit clear and fresh seeds have it set,
		// so a fresh request never hits the cache. Seed 0 would mean the
		// daemon's default seed, so it is never drawn.
		seed := r.Uint64()>>1 | 1
		for _, id := range mixExhibits {
			ecfg := experiments.Quick()
			ecfg.Seed = seed
			out, bw, runs, _, _, err := serve.RenderExhibit(id, ecfg)
			if err != nil {
				return nil, 0, err
			}
			pool = append(pool, poolEntry{body: runBody(id, seed), want: append(out, serve.MeterSummary(bw, runs)...)})
		}
	}
	gen := time.Since(start)
	rngs := make([]*rng.Rand, maxClients)
	for c := range rngs {
		rngs[c] = r.Fork()
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	srv := serve.New(serve.Config{Workers: maxClients})
	b := &serveBench{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: maxClients}, Timeout: time.Minute},
		pool:   pool,
		rngs:   rngs,
	}
	go func() { b.served <- b.hs.Serve(ln) }()
	for _, p := range pool {
		got, err := b.post(p.body)
		if err == nil && !bytes.Equal(got, p.want) {
			err = fmt.Errorf("%s: response differs from RenderExhibit's output", p.body)
		}
		if err != nil {
			b.close()
			return nil, 0, fmt.Errorf("priming the result cache: %w", err)
		}
	}
	return b, gen, nil
}

// op returns the pool index of a repeated request. Fresh requests of one
// exhibit differ only in their seed, so they count as one input, numbered
// after the pool.
func (b *serveBench) op(c, k int, t *tracer) (int, error) {
	r := b.rngs[c]
	var in int
	var body, trailer string
	var want []byte
	if r.Float64() < repeatShare {
		in = r.Intn(len(b.pool))
		body, want = b.pool[in].body, b.pool[in].want
	} else {
		e := r.Intn(len(mixExhibits))
		in = len(b.pool) + e
		id := mixExhibits[e]
		body, trailer = runBody(id, r.Uint64()|1<<63), "["+id+": verified=true]\n"
	}
	start := time.Now()
	got, err := b.post(body)
	t.record(c, "serve.request", k, start)
	switch {
	case err != nil:
		return in, err
	case want != nil && !bytes.Equal(got, want):
		return in, fmt.Errorf("%s: response differs from RenderExhibit's output", body)
	case want == nil && !bytes.Contains(got, []byte(trailer)):
		return in, fmt.Errorf("%s: response lacks %q", body, trailer)
	}
	return in, nil
}

// post sends one synchronous /run request; anything but 200 is an error.
func (b *serveBench) post(body string) ([]byte, error) {
	resp, err := b.client.Post(b.url+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", body, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// serveCounters is the part of the daemon's /metrics the benchmark reads.
type serveCounters struct {
	Jobs struct {
		RejectedQueue  uint64 `json:"rejected_queue_full"`
		CellsExecuted  uint64 `json:"cells_executed"`
		CellsCached    uint64 `json:"cells_cached"`
		CellsCoalesced uint64 `json:"cells_coalesced"`
	} `json:"jobs"`
	Latency struct {
		Run struct {
			P50 float64 `json:"p50_ms"`
		} `json:"run"`
	} `json:"latency_ms"`
}

func (s serveCounters) cells() uint64 {
	return s.Jobs.CellsExecuted + s.Jobs.CellsCached + s.Jobs.CellsCoalesced
}

func (b *serveBench) scrape() (serveCounters, error) {
	var s serveCounters
	resp, err := b.client.Get(b.url + "/metrics")
	if err != nil {
		return s, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return s, fmt.Errorf("/metrics: %w", err)
	}
	return s, nil
}

// close stops the listener, waits for Serve to return and drains the
// daemon's worker pool.
func (b *serveBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	b.client.CloseIdleConnections()
	if err := b.hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "bulkbench: http shutdown: %v\n", err)
	}
	<-b.served
	if err := b.srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "bulkbench: daemon drain: %v\n", err)
	}
}
