// Package serve is the simulation-as-a-service layer behind cmd/bulkd: a
// long-running daemon that accepts sweep/exhibit/check jobs over
// HTTP+JSON, executes them on a bounded worker pool, and streams per-job
// progress.
//
// The service contract is byte-identity: a job's result is exactly what
// the one-shot CLIs (`bulksim -notime`, `bulkcheck`) print for the same
// request, whether the cells executed fresh, rode along on an identical
// in-flight execution (coalescing), or replayed from the LRU result
// cache. Everything performance-shaped — queue depth, worker
// utilization, cache hit rates, bus and simulated-cache meters,
// per-endpoint latency histograms — is exported live on /metrics.
//
// Robustness is part of the contract: bounded-queue backpressure (429 +
// Retry-After), per-job timeouts, cancellation on client disconnect,
// graceful drain on SIGTERM, and panic recovery into failed-job status.
// Job ids are assigned deterministically in submission order, so a
// recorded request sequence replays to the same ids.
package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"bulk/internal/bus"
	"bulk/internal/cache"
	"bulk/internal/par"
)

// Config sizes the daemon.
type Config struct {
	// Workers is the number of concurrent job executors (default 2).
	Workers int
	// QueueDepth bounds the FIFO job queue; a full queue rejects
	// submissions with 429 + Retry-After (default 32).
	QueueDepth int
	// CacheBytes is the LRU result-cache budget (default 64 MiB;
	// negative disables caching).
	CacheBytes int64
	// JobTimeout is the default per-job execution budget (default 5m).
	JobTimeout time.Duration
	// MaxJobTimeout caps client-requested timeout_ms (default 30m).
	MaxJobTimeout time.Duration
	// MaxJobs bounds the finished-job registry; older finished jobs are
	// forgotten first (default 512).
	MaxJobs int
	// CheckWorkers is the explorer worker count used inside check cells;
	// the report is byte-identical at every value (default 1, because
	// job-level concurrency already fills the machine).
	CheckWorkers int
}

// withDefaults fills unset knobs.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.MaxJobTimeout <= 0 {
		c.MaxJobTimeout = 30 * time.Minute
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 512
	}
	if c.CheckWorkers <= 0 {
		c.CheckWorkers = 1
	}
	return c
}

// Server is the daemon state: registry, queue, pool, cache, meters.
type Server struct {
	cfg Config

	mu sync.Mutex
	//bulklint:guardedby mu
	jobs map[string]*Job
	//bulklint:guardedby mu
	order []string
	//bulklint:guardedby mu
	seq int
	//bulklint:guardedby mu
	draining bool
	//bulklint:guardedby mu
	busyWorkers int

	queue chan *Job
	wg    sync.WaitGroup

	baseCtx    context.Context
	baseCancel context.CancelCauseFunc

	cache   *lruCache
	flights *flightGroup
	metrics *metricsRegistry

	// busMeter / simCacheMeter aggregate traffic across every simulation
	// the daemon has run, exported on /metrics. Per-job meters stay
	// separate so each job's traffic trailer matches the one-shot CLI.
	busMeter      *bus.Meter
	simCacheMeter *cache.Meter

	// testCellStart, when non-nil, is called at the start of every fresh
	// cell execution — the e2e tests use it to hold a cell mid-flight
	// (coalescing and cancellation windows are racy to hit otherwise).
	testCellStart func(key string)
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:           cfg,
		jobs:          map[string]*Job{},
		queue:         make(chan *Job, cfg.QueueDepth),
		baseCtx:       ctx,
		baseCancel:    cancel,
		cache:         newLRUCache(cfg.CacheBytes),
		flights:       newFlightGroup(),
		metrics:       newMetricsRegistry(),
		busMeter:      &bus.Meter{},
		simCacheMeter: &cache.Meter{},
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// panicError marks a cell execution that died of a recovered panic, so
// the job lands in failed status instead of taking the daemon down.
type panicError struct{ val any }

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.val) }

// errDraining rejects submissions during shutdown.
var errDraining = fmt.Errorf("server is draining")

// errQueueFull rejects submissions when the bounded queue is at
// capacity; the HTTP layer translates it to 429 + Retry-After.
var errQueueFull = fmt.Errorf("job queue is full")

// Submit validates a request, assigns the next deterministic job id, and
// enqueues. It never blocks: a full queue fails fast with errQueueFull.
func (s *Server) Submit(req Request) (*Job, error) {
	cells, err := s.buildCells(&req)
	if err != nil {
		s.metrics.counters.add(func(v *countersView) { v.RejectedInvalid++ })
		return nil, err
	}
	timeout, err := s.jobTimeout(&req)
	if err != nil {
		s.metrics.counters.add(func(v *countersView) { v.RejectedInvalid++ })
		return nil, err
	}

	j, err := s.admit(req, cells, timeout)
	switch {
	case err == errDraining:
		s.metrics.counters.add(func(v *countersView) { v.RejectedDraining++ })
		return nil, err
	case err == errQueueFull:
		s.metrics.counters.add(func(v *countersView) { v.RejectedQueue++ })
		return nil, err
	case err != nil:
		return nil, err
	}

	s.metrics.counters.add(func(v *countersView) { v.Accepted++ })
	return j, nil
}

// admit creates, registers and enqueues the job under the server lock.
func (s *Server) admit(req Request, cells []cell, timeout time.Duration) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, errDraining
	}
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	id := fmt.Sprintf("job-%06d", s.seq+1)
	j := &Job{
		ID:      id,
		Req:     req,
		cells:   cells,
		timeout: timeout,
		ctx:     ctx,
		cancel:  cancel,
		status:  StatusQueued,
		// The queued frame is seeded before the job is visible to the
		// pool, so streams always see it first.
		frames: []string{fmt.Sprintf(`{"event":"queued","job":%q,"total":%d}`, id, len(cells))},
		notify: make(chan struct{}),
		done:   make(chan struct{}),
	}
	select {
	case s.queue <- j:
	default:
		cancel(errQueueFull)
		return nil, errQueueFull
	}
	s.seq++
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.trimLocked()
	return j, nil
}

// trimLocked forgets the oldest finished jobs beyond the registry bound.
// Callers hold s.mu.
func (s *Server) trimLocked() {
	for len(s.order) > s.cfg.MaxJobs {
		trimmed := false
		for i, id := range s.order {
			if s.jobs[id].terminalNow() {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				trimmed = true
				break
			}
		}
		if !trimmed {
			return // everything live; let the registry run hot
		}
	}
}

// Job looks up a job by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// jobList returns the live jobs in submission order.
func (s *Server) jobList() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Cancel cancels a job by id.
func (s *Server) Cancel(id string) bool {
	j, ok := s.Job(id)
	if !ok {
		return false
	}
	j.cancel(errCanceled)
	return true
}

// queueDepth reports how many jobs wait unclaimed.
func (s *Server) queueDepth() int { return len(s.queue) }

// worker is one pool goroutine: claim, execute, repeat. The pool slot is
// reclaimed whatever the job does — panic, timeout, cancellation.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.mu.Lock()
		s.busyWorkers++
		s.mu.Unlock()
		start := wallClock()
		s.runJob(j)
		s.metrics.jobSecs.observe(wallClock().Sub(start).Seconds())
		s.mu.Lock()
		s.busyWorkers--
		s.mu.Unlock()
	}
}

// runJob executes one claimed job end to end, translating panics into
// failed status so a poisoned workload cannot kill the daemon. Whatever the
// terminal status, the job's context is canceled after it is set.
func (s *Server) runJob(j *Job) {
	defer j.cancel(errJobDone)
	defer func() {
		if r := recover(); r != nil {
			s.metrics.counters.add(func(v *countersView) { v.Panics++; v.Failed++ })
			j.setStatus(StatusFailed, fmt.Sprintf("panic: %v", r))
		}
	}()

	if err := j.ctx.Err(); err != nil {
		// Canceled while queued; never started.
		s.metrics.counters.add(func(v *countersView) { v.Canceled++ })
		j.setStatus(StatusCanceled, describeCause(context.Cause(j.ctx)))
		return
	}
	j.setStatus(StatusRunning, "")

	// The timeout cancels the job's own context rather than a child of it:
	// a canceled context closes its Done channel before it cancels its
	// children, so with a child a cell could still see a live context
	// after a waiter saw the job's die.
	timer := time.AfterFunc(j.timeout, func() { j.cancel(context.DeadlineExceeded) })
	defer timer.Stop()

	result, err := s.executeCells(j.ctx, j)
	switch {
	case err == nil:
		s.metrics.counters.add(func(v *countersView) { v.Completed++ })
		j.finish(result)
	case canceledErr(err) || j.ctx.Err() != nil:
		s.metrics.counters.add(func(v *countersView) { v.Canceled++ })
		j.setStatus(StatusCanceled, describeCause(err))
	default:
		s.metrics.counters.add(func(v *countersView) { v.Failed++ })
		j.setStatus(StatusFailed, err.Error())
	}
}

// executeCells runs the job's cell pipeline on internal/par — results
// land by index, so assembly order is the request order regardless of
// completion order — and assembles the one-shot output.
func (s *Server) executeCells(ctx context.Context, j *Job) ([]byte, error) {
	results := make([]cellResult, len(j.cells))
	err := par.ForEach(len(j.cells), func(i int) error {
		if cerr := ctx.Err(); cerr != nil {
			return context.Cause(ctx)
		}
		c := j.cells[i]
		res, cached, coalesced, cerr := s.executeCell(ctx, c)
		if cerr != nil {
			return cerr
		}
		results[i] = res
		j.publishCell(i, c.key, cached, coalesced)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return assemble(j.cells, results), nil
}

// executeCell resolves one cell through cache → coalescer → fresh run.
// The fresh-run path recovers panics into a panicError: cells may execute
// on par.ForEach worker goroutines, where runJob's own recover cannot
// reach, and an unrecovered panic there would kill the daemon.
func (s *Server) executeCell(ctx context.Context, c cell) (res cellResult, cached, coalesced bool, err error) {
	if res, ok := s.cache.get(c.key); ok {
		s.metrics.counters.add(func(v *countersView) { v.CellsCached++ })
		s.mergeCellMeters(res)
		return res, true, false, nil
	}
	res, coalesced, err = s.flights.do(ctx, c.key, func() (fres cellResult, ferr error) {
		defer func() {
			if r := recover(); r != nil {
				s.metrics.counters.add(func(v *countersView) { v.Panics++ })
				fres, ferr = cellResult{}, &panicError{val: r}
			}
		}()
		if s.testCellStart != nil {
			s.testCellStart(c.key)
		}
		if cerr := ctx.Err(); cerr != nil {
			return cellResult{}, context.Cause(ctx)
		}
		s.metrics.counters.add(func(v *countersView) { v.CellsExecuted++ })
		fresh, ferr := s.runCell(c)
		if ferr != nil {
			return cellResult{}, ferr
		}
		s.cache.put(c.key, fresh)
		s.mergeCellMeters(fresh)
		return fresh, nil
	})
	if err != nil {
		return cellResult{}, false, coalesced, err
	}
	if coalesced {
		s.metrics.counters.add(func(v *countersView) { v.CellsCoalesced++ })
		s.mergeCellMeters(res)
	}
	return res, false, coalesced, nil
}

// mergeCellMeters folds one served cell's simulation traffic into the
// daemon-lifetime meters. Cached and coalesced serves count too: the
// meters measure traffic *served*, mirroring what the equivalent one-shot
// CLI runs would have generated.
func (s *Server) mergeCellMeters(res cellResult) {
	s.busMeter.MergeSnapshot(res.bw, res.runs)
	s.simCacheMeter.MergeSnapshot(res.cs, res.csRuns)
}

// runCell executes one cell for real.
func (s *Server) runCell(c cell) (cellResult, error) {
	switch c.kind {
	case "exhibit":
		out, bw, runs, cs, csRuns, err := RenderExhibit(c.id, c.cfg)
		if err != nil {
			return cellResult{}, err
		}
		return cellResult{out: out, bw: bw, runs: runs, cs: cs, csRuns: csRuns}, nil
	case "check":
		return cellResult{out: RenderCheck(c.target, c.budget, s.cfg.CheckWorkers, c.verbose)}, nil
	default:
		return cellResult{}, fmt.Errorf("unknown cell kind %q", c.kind)
	}
}

// assemble joins cell outputs into the job result with the one-shot
// CLI's framing: exhibit sections separated by blank lines plus the
// meter summary; check lines concatenated bare.
func assemble(cells []cell, results []cellResult) []byte {
	var out []byte
	var total bus.Bandwidth
	runs := 0
	exhibits := false
	for i := range cells {
		if cells[i].kind == "exhibit" {
			exhibits = true
			if i > 0 {
				out = append(out, '\n')
			}
		}
		out = append(out, results[i].out...)
		bw := results[i].bw
		total.Add(&bw)
		runs += results[i].runs
	}
	if exhibits {
		out = append(out, MeterSummary(total, runs)...)
	}
	return out
}

// Drain stops accepting jobs, lets queued and in-flight jobs finish, and
// returns when the pool is idle or ctx expires (then in-flight jobs are
// canceled and the pool awaited unconditionally).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		close(s.queue)
	}

	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
	}
	// Deadline passed: cancel every in-flight job and give ctx-observing
	// cells a bounded grace to unwind. A cell that ignores its context
	// cannot be waited out — report the failure rather than hang.
	s.baseCancel(fmt.Errorf("drain deadline exceeded: %w", context.Cause(ctx)))
	select {
	case <-idle:
	case <-time.After(2 * time.Second):
	}
	return ctx.Err()
}

// Draining reports whether the server has begun shutdown.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Close cancels everything and waits briefly for the pool. For tests and
// last-resort shutdown; prefer Drain.
func (s *Server) Close() {
	s.baseCancel(fmt.Errorf("server closed"))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = s.Drain(ctx)
}
