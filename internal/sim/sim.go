// Package sim holds the timing model shared by the TM and TLS runtimes:
// the latency parameters of Table 5 plus the event-scheduling helper the
// runtimes drive their processors with.
//
// The model is memory-level: each memory operation costs its trace think
// time plus a cache-access latency (hit, neighbor fill, or memory fill);
// commits serialize on the bus and cost arbitration plus packet transfer;
// squashes cost a restart overhead plus the natural re-execution time.
// There is no out-of-order pipeline — the paper's evaluation questions
// (squash rates, invalidation accuracy, bandwidth) live in the memory
// system, and relative scheme orderings survive this simplification.
package sim

import "fmt"

// Params are the timing parameters. Cycles throughout.
type Params struct {
	// HitLatency is an L1 hit (Table 5: OC 1, RT 2 for TLS).
	HitLatency int
	// NeighborLatency is a fill served by another processor's L1
	// (Table 5: round trip to neighbor's L1, min 8 cycles).
	NeighborLatency int
	// MemLatency is a fill served by memory.
	MemLatency int
	// CommitArbitration is the fixed cost of gaining commit permission.
	CommitArbitration int
	// BusBytesPerCycle converts packet bytes into bus occupancy cycles.
	BusBytesPerCycle int
	// SquashOverhead is the fixed cost of squashing and restarting a
	// thread (draining, bulk invalidation, restart).
	SquashOverhead int
	// SpawnOverhead is the TLS task-spawn cost.
	SpawnOverhead int
	// BackoffBase is the contention back-off unit applied when a
	// transaction restarts repeatedly (TM).
	BackoffBase int
}

// DefaultTLS returns the TLS timing parameters (4-processor configuration
// of Table 5).
func DefaultTLS() Params {
	return Params{
		HitLatency:        2,
		NeighborLatency:   8,
		MemLatency:        40,
		CommitArbitration: 12,
		BusBytesPerCycle:  16,
		SquashOverhead:    60,
		SpawnOverhead:     12,
		BackoffBase:       0,
	}
}

// DefaultTM returns the TM timing parameters (8-processor configuration of
// Table 5).
func DefaultTM() Params {
	return Params{
		HitLatency:        2,
		NeighborLatency:   10,
		MemLatency:        50,
		CommitArbitration: 16,
		BusBytesPerCycle:  16,
		SquashOverhead:    80,
		SpawnOverhead:     0,
		BackoffBase:       40,
	}
}

// TransferCycles returns the bus occupancy of a packet of n bytes.
func (p Params) TransferCycles(n int) int {
	if p.BusBytesPerCycle <= 0 {
		return 0
	}
	c := (n + p.BusBytesPerCycle - 1) / p.BusBytesPerCycle
	if c < 1 {
		c = 1
	}
	return c
}

// BranchKind classifies a non-processor-selection scheduling decision the
// runtimes expose to a Scheduler.
type BranchKind int

const (
	// BranchCommit is a commit-token decision: 1 grants the commit now
	// (the default), 0 defers it one quantum.
	BranchCommit BranchKind = iota
	// BranchPreempt is a preemption decision: 1 fires the preemption at
	// this op boundary, 0 skips it. The default follows the PreemptEvery
	// policy; a scheduler may also inject preemptions at boundaries the
	// policy would skip.
	BranchPreempt
)

func (k BranchKind) String() string {
	switch k {
	case BranchCommit:
		return "commit"
	case BranchPreempt:
		return "preempt"
	default:
		return "BranchKind(?)"
	}
}

// Scheduler is the pluggable scheduling hook the model checker drives the
// runtimes through. A nil Scheduler reproduces the default schedule
// byte-identically.
//
// PickProc chooses which processor steps next. candidates holds the
// non-parked processor ids in ascending order (never empty) and ready their
// ready cycles, index-aligned; the default choice is the earliest-ready,
// lowest-id candidate. The return value must be an element of candidates;
// anything else falls back to the default. Picking a later-ready candidate
// advances the clock to its ready time (the event model stays monotonic),
// which is how an explorer delays the other processors' actions.
//
// PickBranch chooses among n alternatives [0,n) of a kind-classified
// decision, def being the runtime's own choice. Out-of-range returns fall
// back to def.
type Scheduler interface {
	PickProc(candidates []int, ready []int64) int
	PickBranch(kind BranchKind, n, def int) int
}

// ConflictPath tells which protocol path a conflict decision was made on.
type ConflictPath int

const (
	// PathCommit is bulk disambiguation of a commit broadcast.
	PathCommit ConflictPath = iota
	// PathInvalidation is per-address disambiguation of a plain-write
	// invalidation (the membership path of Section 4.2).
	PathInvalidation
	// PathSpilled is disambiguation against signatures spilled to memory
	// (Section 6.2.2).
	PathSpilled
)

func (p ConflictPath) String() string {
	switch p {
	case PathCommit:
		return "commit"
	case PathInvalidation:
		return "invalidation"
	case PathSpilled:
		return "spilled"
	default:
		return "ConflictPath(?)"
	}
}

// ConflictEvent is one signature-level conflict decision, paired with the
// exact ground truth the runtime computed independently. SigHit && !ExactHit
// is an allowed false positive (aliasing); ExactHit && !SigHit is a
// soundness violation — the signatures missed a real conflict.
type ConflictEvent struct {
	Path      ConflictPath
	Committer int // committing/writing processor (or thread/task id)
	Receiver  int
	SigHit    bool
	ExactHit  bool
}

// HygieneEvent reports a line destroyed by a squash's bulk invalidation.
// InWriteSet false means the squash destroyed data the squashed thread
// never wrote — a Set Restriction failure.
type HygieneEvent struct {
	Owner      int
	Line       uint64
	InWriteSet bool
}

// StaleKind tells which data-free check reported a StaleEvent.
type StaleKind int

const (
	// StaleCopy: after a commit's invalidation, a receiver's L1 still
	// holds a line the committer wrote that the commit did not merge.
	StaleCopy StaleKind = iota
	// OverflowSkipped: a transactional miss's overflow filter skipped a
	// line the thread's own overflow area holds for a live section, so
	// the refill lacks the thread's data.
	OverflowSkipped
)

// StaleEvent reports a cache line whose data its holder must not use.
// Lines carry no values, so this is where a missed invalidation or a lost
// overflow bit shows. Every event is a violation.
type StaleEvent struct {
	Kind      StaleKind
	Cycle     int64
	Committer int // the committing processor; StaleCopy only
	Holder    int
	Line      uint64
}

func (ev StaleEvent) String() string {
	if ev.Kind == OverflowSkipped {
		return fmt.Sprintf("cycle %d: processor %d's overflow filter skipped line %#x, which its overflow area holds for a live section",
			ev.Cycle, ev.Holder, ev.Line)
	}
	return fmt.Sprintf("cycle %d: processor %d holds a stale copy of line %#x after processor %d's commit",
		ev.Cycle, ev.Holder, ev.Line, ev.Committer)
}

// Probe receives protocol-decision events from a runtime. A nil *Probe is
// valid and drops everything; the runtimes call the Emit methods
// unconditionally. Stale is the exception: its checks cost work, so a
// runtime runs them, and calls Stale directly, only when it is set.
type Probe struct {
	Conflict func(ConflictEvent)
	Hygiene  func(HygieneEvent)
	Stale    func(StaleEvent)
}

// EmitConflict forwards a conflict decision to the probe, if any.
func (p *Probe) EmitConflict(ev ConflictEvent) {
	if p != nil && p.Conflict != nil {
		p.Conflict(ev)
	}
}

// EmitHygiene forwards a squash-hygiene event to the probe, if any.
func (p *Probe) EmitHygiene(ev HygieneEvent) {
	if p != nil && p.Hygiene != nil {
		p.Hygiene(ev)
	}
}

// Engine schedules a fixed set of processors by ready time. Each processor
// is either runnable at some cycle or parked (waiting on an event another
// processor will trigger). The runtimes call Next to get the earliest
// runnable processor, do one unit of work, and re-arm it.
type Engine struct {
	readyAt []int64
	parked  []bool
	now     int64
	// BusFreeAt is when the shared bus next becomes free; commits and
	// broadcasts serialize on it.
	BusFreeAt int64

	sched Scheduler
	// candScratch/readyScratch are the reusable candidate buffers handed
	// to the scheduler.
	candScratch  []int
	readyScratch []int64
}

// NewEngine creates an engine for n processors, all runnable at cycle 0.
func NewEngine(n int) *Engine {
	return &Engine{
		readyAt: make([]int64, n),
		parked:  make([]bool, n),
	}
}

// Now returns the current simulated cycle.
func (e *Engine) Now() int64 { return e.now }

// SetScheduler installs the scheduling hook (nil keeps the default order).
func (e *Engine) SetScheduler(s Scheduler) { e.sched = s }

// Next returns the earliest runnable processor and advances the clock to
// its ready time. It returns -1 if every processor is parked (deadlock or
// completion; the runtime distinguishes). With a scheduler installed, the
// scheduler picks among all runnable processors instead.
func (e *Engine) Next() int {
	if e.sched != nil {
		return e.nextScheduled()
	}
	best := -1
	for i := range e.readyAt {
		if e.parked[i] {
			continue
		}
		if best < 0 || e.readyAt[i] < e.readyAt[best] {
			best = i
		}
	}
	if best < 0 {
		return -1
	}
	if e.readyAt[best] > e.now {
		e.now = e.readyAt[best]
	}
	return best
}

// nextScheduled is the scheduler-driven Next: every non-parked processor is
// a candidate, and the clock advances to the chosen one's ready time.
func (e *Engine) nextScheduled() int {
	e.candScratch = e.candScratch[:0]
	e.readyScratch = e.readyScratch[:0]
	for i := range e.readyAt {
		if e.parked[i] {
			continue
		}
		e.candScratch = append(e.candScratch, i)
		e.readyScratch = append(e.readyScratch, e.readyAt[i])
	}
	if len(e.candScratch) == 0 {
		return -1
	}
	pick := e.sched.PickProc(e.candScratch, e.readyScratch)
	valid := false
	for _, c := range e.candScratch {
		if c == pick {
			valid = true
			break
		}
	}
	if !valid {
		// Fall back to the default choice: earliest ready, lowest id.
		pick = e.candScratch[0]
		for _, c := range e.candScratch[1:] {
			if e.readyAt[c] < e.readyAt[pick] {
				pick = c
			}
		}
	}
	if e.readyAt[pick] > e.now {
		e.now = e.readyAt[pick]
	}
	return pick
}

// Branch exposes a kind-classified n-way scheduling decision to the
// scheduler; def is the runtime's default. Without a scheduler (or on an
// out-of-range pick) the default wins, so default runs take no new path.
func (e *Engine) Branch(kind BranchKind, n, def int) int {
	if e.sched == nil {
		return def
	}
	c := e.sched.PickBranch(kind, n, def)
	if c < 0 || c >= n {
		return def
	}
	return c
}

// Advance re-arms processor i to be runnable cost cycles from now.
func (e *Engine) Advance(i int, cost int) {
	if cost < 0 {
		panic("sim: negative cost") //bulklint:invariant cycle costs come from the cost model, never negative
	}
	e.readyAt[i] = e.now + int64(cost)
}

// AdvanceTo re-arms processor i to be runnable at an absolute cycle.
func (e *Engine) AdvanceTo(i int, at int64) {
	if at < e.now {
		at = e.now
	}
	e.readyAt[i] = at
}

// Park removes processor i from scheduling until Unpark.
func (e *Engine) Park(i int) { e.parked[i] = true }

// Unpark makes processor i runnable at cycle at (or now, if earlier). On a
// processor that is not parked it is AdvanceTo.
func (e *Engine) Unpark(i int, at int64) {
	e.parked[i] = false
	if at < e.now {
		at = e.now
	}
	e.readyAt[i] = at
}

// Parked reports whether processor i is parked.
func (e *Engine) Parked(i int) bool { return e.parked[i] }

// Reset returns the engine to its just-built state: every processor
// runnable at cycle 0, the bus free, the candidate buffers empty with
// their capacity kept. The installed scheduler is the caller's
// configuration, not run state, and stays.
//
//bulklint:noalloc
func (e *Engine) Reset() {
	clear(e.readyAt)
	clear(e.parked)
	e.now = 0
	e.BusFreeAt = 0
	e.candScratch = e.candScratch[:0]
	e.readyScratch = e.readyScratch[:0]
}

// AcquireBus reserves the bus for cycles starting no earlier than now;
// returns the time the bus transaction completes. Used to serialize commit
// broadcasts.
func (e *Engine) AcquireBus(cycles int) int64 {
	start := e.BusFreeAt
	if start < e.now {
		start = e.now
	}
	e.BusFreeAt = start + int64(cycles)
	return e.BusFreeAt
}
