package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"bulk/internal/check"
	"bulk/internal/experiments"
)

// Request is the submission payload of POST /jobs and POST /run.
type Request struct {
	// Kind selects the job type: "exhibit", "sweep", or "check".
	Kind string `json:"kind"`
	// Exhibit names one experiment id (kind "exhibit").
	Exhibit string `json:"exhibit,omitempty"`
	// Exhibits lists experiment ids for kind "sweep"; empty = all, in
	// registry order (exactly `bulksim -exp all`).
	Exhibits []string `json:"exhibits,omitempty"`
	// Seed is the workload-generation seed; 0 means the CLI default 2006.
	Seed uint64 `json:"seed,omitempty"`
	// Quick selects the scaled-down configuration (bulksim -quick).
	Quick bool `json:"quick,omitempty"`
	// NoVerify skips the end-to-end oracle (bulksim -noverify).
	NoVerify bool `json:"noverify,omitempty"`
	// Protocol scopes a check job: tm, tls, ckpt, or all (default all).
	Protocol string `json:"protocol,omitempty"`
	// Target names a single sweep target instead of a protocol sweep.
	Target string `json:"target,omitempty"`
	// Budget is the exploration budget of a check job (default "small").
	Budget string `json:"budget,omitempty"`
	// Verbose adds per-target statistics to check output (bulkcheck -v).
	Verbose bool `json:"verbose,omitempty"`
	// TimeoutMS overrides the server's per-job execution budget
	// (bounded by the server's configured maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Status is a job's lifecycle state. The state machine is strictly
// forward: queued → running → {done, failed, canceled}; queued jobs can
// also jump straight to canceled.
type Status string

const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// terminal reports whether no further transitions can happen.
func (s Status) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// errCanceled is the cancellation cause for explicit DELETE requests.
var errCanceled = errors.New("canceled by client")

// errJobDone releases a job's context once the job is terminal, so a
// finished job does not stay a child of the server's base context.
var errJobDone = errors.New("job finished")

// errClientGone is the cancellation cause when the owning client
// disconnected (sync /run callers and cancel-bound streamers).
var errClientGone = errors.New("client disconnected")

// cell is one unit of coalescable, cacheable work inside a job: a single
// exhibit regeneration or a single check-target exploration. Identical
// cells across jobs share one execution (coalescing) and one cache slot.
type cell struct {
	// key is the canonical identity: every byte of configuration that can
	// change the result lands in it, nothing else does.
	key string
	// kind is "exhibit" or "check".
	kind string
	// id is the experiment id (exhibit cells).
	id string
	// cfg is the experiment configuration (exhibit cells).
	cfg experiments.Config
	// target/budget/verbose drive check cells.
	target  check.Target
	budget  check.Budget
	verbose bool
}

// Job is one accepted request moving through the queue.
type Job struct {
	// ID is assigned deterministically in submission order (job-000001,
	// job-000002, ...), so a recorded request sequence replays to the
	// same ids.
	ID string
	// Req echoes the accepted request.
	Req Request

	cells   []cell
	timeout time.Duration

	ctx    context.Context
	cancel context.CancelCauseFunc

	mu sync.Mutex
	//bulklint:guardedby mu
	status Status
	//bulklint:guardedby mu
	errmsg string
	//bulklint:guardedby mu
	result []byte
	//bulklint:guardedby mu
	frames []string
	//bulklint:guardedby mu
	notify chan struct{}
	//bulklint:guardedby mu
	cachedCells int
	//bulklint:guardedby mu
	doneCells int

	done chan struct{}
}

// buildCells validates a request and expands it into its cell pipeline.
func (s *Server) buildCells(req *Request) ([]cell, error) {
	seed := req.Seed
	if seed == 0 {
		seed = 2006
	}
	cfg := experiments.Default()
	if req.Quick {
		cfg = experiments.Quick()
	}
	cfg.Seed = seed
	cfg.Verify = !req.NoVerify

	exhibitCell := func(id string) (cell, error) {
		if _, ok := experiments.ByID(id); !ok {
			return cell{}, fmt.Errorf("unknown experiment %q", id)
		}
		return cell{
			kind: "exhibit",
			id:   id,
			cfg:  cfg,
			key: fmt.Sprintf("exhibit|%s|seed=%d|quick=%v|verify=%v",
				id, seed, req.Quick, cfg.Verify),
		}, nil
	}

	switch req.Kind {
	case "exhibit":
		if req.Exhibit == "" {
			return nil, errors.New("exhibit jobs need an \"exhibit\" id")
		}
		c, err := exhibitCell(req.Exhibit)
		if err != nil {
			return nil, err
		}
		return []cell{c}, nil

	case "sweep":
		ids := req.Exhibits
		if len(ids) == 0 {
			for _, r := range experiments.All() {
				ids = append(ids, r.ID)
			}
		}
		cells := make([]cell, 0, len(ids))
		for _, id := range ids {
			c, err := exhibitCell(id)
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		}
		return cells, nil

	case "check":
		budget := req.Budget
		if budget == "" {
			budget = "small"
		}
		b, ok := check.BudgetByName(budget)
		if !ok {
			return nil, fmt.Errorf("unknown budget %q (want small, medium, or large)", budget)
		}
		var targets []check.Target
		if req.Target != "" {
			for _, t := range check.SweepTargets() {
				if t.Name() == req.Target {
					targets = []check.Target{t}
					break
				}
			}
			if targets == nil {
				return nil, fmt.Errorf("unknown target %q", req.Target)
			}
		} else {
			proto := req.Protocol
			if proto == "" {
				proto = "all"
			}
			var err error
			targets, err = check.TargetsByProtocol(proto)
			if err != nil {
				return nil, err
			}
		}
		cells := make([]cell, 0, len(targets))
		for _, t := range targets {
			cells = append(cells, cell{
				kind:    "check",
				target:  t,
				budget:  b,
				verbose: req.Verbose,
				key: fmt.Sprintf("check|%s|budget=%s|verbose=%v",
					t.Name(), budget, req.Verbose),
			})
		}
		return cells, nil

	default:
		return nil, fmt.Errorf("unknown job kind %q (want exhibit, sweep, or check)", req.Kind)
	}
}

// jobTimeout resolves the execution budget for a request.
func (s *Server) jobTimeout(req *Request) (time.Duration, error) {
	if req.TimeoutMS == 0 {
		return s.cfg.JobTimeout, nil
	}
	if req.TimeoutMS < 0 {
		return 0, fmt.Errorf("timeout_ms %d is negative", req.TimeoutMS)
	}
	// Compare before converting: a large timeout_ms would overflow the
	// Duration multiplication into a negative or tiny timeout.
	if req.TimeoutMS > s.cfg.MaxJobTimeout.Milliseconds() {
		return 0, fmt.Errorf("timeout_ms %d exceeds the server maximum %dms",
			req.TimeoutMS, s.cfg.MaxJobTimeout.Milliseconds())
	}
	return time.Duration(req.TimeoutMS) * time.Millisecond, nil
}

// setStatus advances the state machine, publishing a frame. Transitions
// out of a terminal state are ignored (a cancel racing a completion).
func (j *Job) setStatus(st Status, errmsg string) {
	if j.advance(st, errmsg) && st.terminal() {
		close(j.done)
	}
}

// advance applies the transition under the lock, reporting whether it
// took effect.
func (j *Job) advance(st Status, errmsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.terminal() {
		return false
	}
	j.status = st
	j.errmsg = errmsg
	frame := fmt.Sprintf(`{"event":%q,"job":%q}`, string(st), j.ID)
	if errmsg != "" {
		frame = fmt.Sprintf(`{"event":%q,"job":%q,"error":%q}`, string(st), j.ID, errmsg)
	}
	j.publishLocked(frame)
	return true
}

// terminalNow reports whether the job has reached a terminal state.
func (j *Job) terminalNow() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status.terminal()
}

// publishLocked appends a progress frame and wakes streamers. Callers
// hold j.mu.
func (j *Job) publishLocked(frame string) {
	j.frames = append(j.frames, frame)
	close(j.notify)
	j.notify = make(chan struct{})
}

// publishCell records one finished cell.
func (j *Job) publishCell(index int, key string, cached, coalesced bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.terminal() {
		return
	}
	j.doneCells++
	if cached {
		j.cachedCells++
	}
	j.publishLocked(fmt.Sprintf(
		`{"event":"cell","job":%q,"index":%d,"key":%q,"cached":%v,"coalesced":%v,"done":%d,"total":%d}`,
		j.ID, index, key, cached, coalesced, j.doneCells, len(j.cells)))
}

// finish lands the assembled result.
func (j *Job) finish(result []byte) {
	if j.land(result) {
		close(j.done)
	}
}

// land stores the result under the lock, reporting whether the job was
// still live to receive it.
func (j *Job) land(result []byte) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.terminal() {
		return false
	}
	j.status = StatusDone
	j.result = result
	j.publishLocked(fmt.Sprintf(`{"event":"done","job":%q,"bytes":%d}`, j.ID, len(result)))
	return true
}

// snapshot returns the fields a status response needs, consistently.
func (j *Job) snapshot() (st Status, errmsg string, done, total, cached int, resultLen int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.errmsg, j.doneCells, len(j.cells), j.cachedCells, len(j.result)
}

// resultBytes returns the result if the job reached done.
func (j *Job) resultBytes() ([]byte, Status, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.status, j.errmsg
}

// jobSummaryJSON is the /jobs listing entry.
func (j *Job) summaryJSON() string {
	st, _, done, total, _, _ := j.snapshot()
	return fmt.Sprintf(`{"id":%q,"kind":%q,"status":%q,"cells_done":%d,"cells_total":%d}`,
		j.ID, j.Req.Kind, string(st), done, total)
}

// describeCause maps a cancellation cause to the status error text.
func describeCause(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "job timeout exceeded"
	case errors.Is(err, errClientGone):
		return errClientGone.Error()
	case errors.Is(err, errCanceled):
		return errCanceled.Error()
	case err == nil:
		return "canceled"
	default:
		return strings.TrimPrefix(err.Error(), "context canceled: ")
	}
}
