package tls

import (
	"errors"
	"fmt"

	"bulk/internal/bdm"
	"bulk/internal/cache"
	"bulk/internal/core"
	"bulk/internal/sig"
	"bulk/internal/trace"
	"bulk/internal/workload"
)

// taskState is the lifecycle of a speculative task.
type taskState int

const (
	// tsUnspawned: the parent has not reached its spawn point.
	tsUnspawned taskState = iota
	// tsSpawnable: spawned, waiting for a processor.
	tsSpawnable
	// tsReady: assigned to a processor, waiting to (re)start.
	tsReady
	// tsRunning: executing.
	tsRunning
	// tsFinished: execution complete, waiting for the commit token.
	tsFinished
	// tsCommitted: retired.
	tsCommitted
)

// taskRun is a task's scalar run state. Reset writes it whole, so every
// scalar of a task belongs here.
type taskRun struct {
	state    taskState
	proc     int // -1 when unassigned
	opIdx    int
	attempts int
	exec     trace.Executor

	spawned bool // crossed the spawn point this execution
	// awaitSpawn gates a cascade-squashed task: its parent was also
	// squashed and must re-cross its spawn point (re-producing the
	// child's live-ins) before the child may restart. Without this gate a
	// child could re-read pre-spawn data the parent has not regenerated
	// yet and — correctly unprotected by Partial Overlap — commit stale
	// values.
	awaitSpawn bool

	restartAt int64
}

type task struct {
	idx int // immutable task identity fixed at construction
	taskRun

	// Footprint is the task's write buffer, exact sets (its shadow masks
	// are Lazy's exact Partial Overlap equivalent) and (Bulk) BDM version.
	// A claim draws it from the System's pool with a fresh version, and the
	// commit frees the version and returns it; nil while unclaimed.
	*core.Footprint
}

func (t *task) active() bool { return t.state == tsRunning || t.state == tsFinished }

func (t *task) resetSpec() {
	// All speculative tracking state keeps its capacity across restarts of
	// the same task — squash/restart churn allocates nothing.
	t.Footprint.Reset()
	t.spawned = false
	t.opIdx = 0
	t.exec.Reset()
}

// procRun is a processor's scalar run state, written whole like taskRun.
type procRun struct {
	parkedAt int64 // when the processor last parked, for StallCycles
}

type proc struct {
	id     int
	cache  *cache.Cache
	module *bdm.Module // Bulk only
	procRun
	tasks []int // assigned uncommitted task indices, ascending
}

// System is a TLS run in progress: the policy on an embedded
// core.Machine.
type System struct {
	core.Machine[Result]
	opts  Options
	w     *workload.TLSWorkload
	procs []*proc
	tasks []*task

	commitNext int
	stats      Stats
	// res is Judge's result buffer, assembled once a run completes.
	res Result
	// oracle is Judge's sequential-reference check, whose storage every
	// judged run reuses.
	oracle oracle

	// keyScratch is the reusable sorted-key buffer for the Lazy commit's
	// line merge.
	keyScratch []uint64
	// pool holds the empty footprints of retired tasks for the next claims,
	// so a run grows about Procs×MaxVersions footprints, not one per task.
	pool []*core.Footprint
}

// NewSystem prepares a TLS run.
func NewSystem(w *workload.TLSWorkload, opts Options) (*System, error) {
	if len(w.Tasks) == 0 {
		return nil, errors.New("tls: empty workload")
	}
	if opts.Procs <= 0 {
		opts.Procs = 4
	}
	if opts.MaxVersions <= 0 {
		opts.MaxVersions = 2
	}
	opts.SetDefaults(defaults)
	if opts.SigConfig == nil {
		opts.SigConfig = sig.DefaultTLS()
	}
	s := &System{opts: opts, w: w}
	var bulk *core.BDM
	if opts.Scheme == Bulk {
		bulk = &core.BDM{Versions: opts.MaxVersions, Words: !opts.LineGranularity}
	}
	if err := s.Init(&s.opts.Config, opts.Procs, bulk, s); err != nil {
		return nil, fmt.Errorf("tls: %w", err)
	}
	for i := 0; i < opts.Procs; i++ {
		p := &proc{id: i, cache: s.Caches[i]}
		if bulk != nil {
			p.module = s.Modules[i]
		}
		s.procs = append(s.procs, p)
	}
	s.tasks = make([]*task, len(w.Tasks))
	for i := range w.Tasks {
		s.tasks[i] = &task{idx: i}
	}
	s.Reset()
	return s, nil
}

// ResetPolicy implements core.Policy: it writes the task state a
// just-built system starts from — the first task spawnable, every other
// unspawned and unassigned with an empty footprint, no processor holding a
// task, zero counters — keeping every buffer's storage.
func (s *System) ResetPolicy() {
	s.stats = Stats{}
	s.commitNext = 0
	s.res = Result{}
	for _, p := range s.procs {
		p.procRun = procRun{}
		p.tasks = p.tasks[:0]
	}
	for _, t := range s.tasks {
		t.taskRun = taskRun{proc: -1, exec: trace.Executor{ThreadID: t.idx}}
		if t.Footprint != nil {
			s.release(t)
		}
	}
	s.tasks[0].state = tsSpawnable
}

// Run executes the workload under the options and returns the result.
func Run(w *workload.TLSWorkload, opts Options) (*Result, error) {
	s, err := NewSystem(w, opts)
	if err != nil {
		return nil, err
	}
	return s.Machine.Run()
}

// Tick implements core.Policy: one scheduling quantum. It reports
// running=false when every task has committed (or livelock tripped), and
// an error on deadlock.
func (s *System) Tick() (running bool, err error) {
	if s.commitNext >= len(s.tasks) || s.stats.LivelockDetected {
		return false, nil
	}
	p := s.Engine.Next()
	if p < 0 {
		// All processors parked. With a scheduler deferring commits,
		// the only legitimate way here is a finished head task whose
		// commit was deferred until nothing else could run — grant it.
		if s.forceCommitHead() {
			return true, nil
		}
		return false, fmt.Errorf("tls: deadlock at commitNext=%d", s.commitNext)
	}
	s.step(s.procs[p])
	return true, nil
}

// Collect implements core.Policy: it assembles the result of a completed
// run. Tasks commit in order, so commitNext is the commit count.
func (s *System) Collect(res *Result, t core.Totals) {
	*res = Result{Stats: s.stats, Memory: s.Mem}
	res.Stats.Commits = uint64(s.commitNext)
	res.Stats.Cycles = t.Cycles
	res.Stats.Bandwidth = t.Bandwidth
	res.Stats.SafeWritebacks += t.SafeWritebacks
}

// Judge finishes a completed run, digests its observable outcome — the
// committed memory and headline counters — into d, and checks it against
// the sequential reference.
func (s *System) Judge(d *core.Digest) error {
	r := s.FinishInto(&s.res)
	s.DigestMemory(d)
	d.Mix(r.Stats.Commits, r.Stats.Squashes, r.Stats.CascadeSquashes, uint64(r.Stats.Cycles))
	return s.oracle.check(s.w, r)
}

// currentTask returns the oldest runnable task on p. blocked reports that
// the oldest pending task is gated on its parent's re-spawn — the
// processor must wait rather than run younger work out of order.
func (p *proc) currentTask(s *System) (t *task, blocked bool) {
	for _, ti := range p.tasks {
		c := s.tasks[ti]
		if c.state == tsRunning || c.state == tsReady {
			if c.awaitSpawn {
				return nil, true
			}
			return c, false
		}
	}
	return nil, false
}

// liveVersions counts p's uncommitted assigned tasks.
func (p *proc) liveVersions(s *System) int {
	n := 0
	for _, ti := range p.tasks {
		if s.tasks[ti].state != tsCommitted {
			n++
		}
	}
	return n
}

// forceCommitHead commits the head task directly when it is finished but
// its commit token was deferred by the scheduler and every processor has
// since parked. Returns whether a commit happened.
func (s *System) forceCommitHead() bool {
	if s.commitNext >= len(s.tasks) || s.tasks[s.commitNext].state != tsFinished {
		return false
	}
	s.commitTask(s.tasks[s.commitNext])
	return true
}

// step advances processor p by one action.
func (s *System) step(p *proc) {
	// A deferred head commit is retried every quantum, so a scheduler's
	// "defer" choice postpones the commit by exactly one decision.
	if s.opts.Scheduler != nil &&
		s.commitNext < len(s.tasks) && s.tasks[s.commitNext].state == tsFinished {
		s.tryCommitChain()
	}
	t, blocked := p.currentTask(s)
	if t == nil && !blocked {
		t = s.claim(p)
	}
	if t == nil {
		p.parkedAt = s.Engine.Now()
		s.Engine.Park(p.id)
		return
	}
	if t.state == tsReady {
		if t.restartAt > s.Engine.Now() {
			s.Engine.AdvanceTo(p.id, t.restartAt)
			return
		}
		s.startTask(p, t)
		s.Engine.Advance(p.id, 1)
		return
	}
	// Running: execute one op.
	ops := s.w.Tasks[t.idx].Ops
	if t.opIdx >= len(ops) {
		s.finishTask(p, t)
		return
	}
	op := ops[t.opIdx]
	cost, ok := s.executeOp(p, t, op)
	if !ok {
		// The op squashed its own task (Set Restriction conflict); the
		// task is back in tsReady and will restart.
		return
	}
	t.opIdx++
	// Spawn point crossed?
	if t.opIdx-1 == s.w.Tasks[t.idx].SpawnIndex {
		cost += s.spawn(p, t)
	}
	s.Engine.Advance(p.id, int(op.Think)+cost)
}

// claim assigns the lowest spawnable task to p if a version slot is free.
func (s *System) claim(p *proc) *task {
	if p.liveVersions(s) >= s.opts.MaxVersions {
		return nil
	}
	for i := s.commitNext; i < len(s.tasks); i++ {
		t := s.tasks[i]
		if t.state == tsSpawnable && t.proc < 0 && !t.awaitSpawn {
			var v *bdm.Version
			if p.module != nil {
				var err error
				if v, err = p.module.AllocVersion(i); err != nil {
					return nil // no slot
				}
			}
			t.proc = p.id
			t.state = tsReady
			p.tasks = append(p.tasks, i)
			if n := len(s.pool); n > 0 {
				t.Footprint, s.pool = s.pool[n-1], s.pool[:n-1]
			} else {
				t.Footprint = new(core.Footprint)
			}
			t.Version = v
			return t
		}
		if t.state == tsUnspawned {
			break // later tasks cannot be spawnable yet
		}
	}
	return nil
}

// startTask transitions a Ready task to Running and applies the Partial
// Overlap spawn invalidation (Section 6.3): the child's cache drops clean
// lines the parent has written, so live-in reads fetch the parent's
// versions instead of stale memory copies.
func (s *System) startTask(p *proc, t *task) {
	t.state = tsRunning
	if p.module != nil {
		p.module.SetRunning(t.Version)
	}
	if t.idx == 0 || t.attempts > 0 {
		return
	}
	parent := s.tasks[t.idx-1]
	if !parent.active() {
		return
	}
	switch s.opts.Scheme {
	case Bulk:
		if s.opts.PartialOverlap && parent.Version != nil {
			p.module.SpawnInvalidate(parent.Version.W)
		}
	case Lazy:
		// Exact equivalent: drop clean copies of the parent's written
		// lines.
		s.Drop(p.id, parent.Footprint, core.Writes, cache.Clean)
	}
}

// spawn marks the successor task spawnable and starts the shadow write
// signature.
func (s *System) spawn(p *proc, t *task) int {
	t.spawned = true
	if p.module != nil && s.opts.PartialOverlap {
		p.module.StartShadow(t.Version)
	}
	if t.idx+1 < len(s.tasks) {
		child := s.tasks[t.idx+1]
		if child.state == tsUnspawned {
			child.state = tsSpawnable
			s.unparkAll()
		}
		if child.awaitSpawn {
			// The child was cascade-squashed; its live-ins have now been
			// regenerated, so it may restart.
			child.awaitSpawn = false
			s.unparkAll()
		}
	}
	return s.opts.Params.SpawnOverhead
}

// finishTask marks t finished and tries to advance the commit chain.
func (s *System) finishTask(p *proc, t *task) {
	t.state = tsFinished
	if p.module != nil {
		// The finished task's version stays in the BDM (preempted) while
		// the processor may run another task.
		p.module.SetRunning(nil)
	}
	s.tryCommitChain()
	// The processor looks for more work next quantum.
	s.Engine.Advance(p.id, 1)
}

// release empties t's footprint and returns it to the pool. The caller has
// freed its version.
func (s *System) release(t *task) {
	t.Footprint.Reset()
	t.Version = nil
	s.pool = append(s.pool, t.Footprint)
	t.Footprint = nil
}

// unparkAll wakes every parked processor to re-evaluate scheduling.
func (s *System) unparkAll() {
	now := s.Engine.Now()
	for _, p := range s.procs {
		if s.Engine.Parked(p.id) {
			s.stats.StallCycles += now - p.parkedAt
			s.Engine.Unpark(p.id, now)
		}
	}
}
